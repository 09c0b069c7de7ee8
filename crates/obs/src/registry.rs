//! Named-metric registries.
//!
//! A [`Registry`] is a map from series name to metric, guarded by a
//! mutex that is touched only on registration and snapshot — the
//! returned handles ([`Counter`](crate::Counter) etc.) are clones of
//! the shared cores and never take the lock again. One process-wide
//! registry ([`global`]) backs the `span!` macro and the standing
//! instrumentation in sim/serve; components that need isolated,
//! reproducible numbers (the chaos campaign, per-server serve stats)
//! own private registries instead.

use crate::clock::{Clock, MonotonicClock};
use crate::metrics::{Counter, Gauge, Histogram};
use crate::snapshot::{Series, SeriesData, Snapshot};
use crate::span::SpanGuard;
use crate::sync::relock;
use std::collections::HashMap;
use std::sync::{Arc, LazyLock, Mutex, MutexGuard};

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A named collection of metrics sharing one [`Clock`].
pub struct Registry {
    metrics: Mutex<HashMap<String, Metric>>,
    clock: Arc<dyn Clock>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let count = self.lock().len();
        f.debug_struct("Registry").field("metrics", &count).finish()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

static GLOBAL: LazyLock<Registry> = LazyLock::new(Registry::new);

/// The process-wide registry (monotonic real clock). Standing
/// instrumentation registers here; `span!` records here.
pub fn global() -> &'static Registry {
    &GLOBAL
}

impl Registry {
    /// An empty registry on the monotonic real clock.
    pub fn new() -> Self {
        Self::with_clock(Arc::new(MonotonicClock))
    }

    /// An empty registry on a caller-supplied clock (use
    /// [`ManualClock`](crate::ManualClock) for deterministic tests and
    /// byte-stable snapshots).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Self {
            metrics: Mutex::new(HashMap::new()),
            clock,
        }
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<String, Metric>> {
        relock(&self.metrics)
    }

    /// The registry clock's current reading.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Gets or registers the counter `name`. If the name is already
    /// taken by a different metric kind, a detached counter is
    /// returned (it records but is not exported) rather than panicking.
    pub fn counter(&self, name: &str) -> Counter {
        let mut metrics = self.lock();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::detached()))
        {
            Metric::Counter(c) => c.clone(),
            _ => Counter::detached(),
        }
    }

    /// Gets or registers the gauge `name` (kind conflicts yield a
    /// detached handle, as with [`Registry::counter`]).
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut metrics = self.lock();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::detached()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => Gauge::detached(),
        }
    }

    /// Gets or registers the histogram `name` (kind conflicts yield a
    /// detached handle, as with [`Registry::counter`]).
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut metrics = self.lock();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::detached()))
        {
            Metric::Histogram(h) => h.clone(),
            _ => Histogram::detached(),
        }
    }

    /// Starts a span over this registry's clock; its duration lands in
    /// the histogram `name` when the guard drops. When recording is
    /// disabled the guard is inert and the clock is never read.
    pub fn span(&self, name: &str) -> SpanGuard {
        if !crate::metrics::enabled() {
            return SpanGuard::inert();
        }
        SpanGuard::started(self.histogram(name), self.clock.clone())
    }

    /// Merges every stripe of every metric into a sorted, immutable
    /// [`Snapshot`] stamped with the registry clock.
    pub fn snapshot(&self) -> Snapshot {
        let at_ns = self.clock.now_ns();
        let metrics = self.lock();
        let mut series: Vec<Series> = metrics
            .iter()
            .map(|(name, metric)| Series {
                name: name.clone(),
                data: match metric {
                    Metric::Counter(c) => SeriesData::Counter(c.total()),
                    Metric::Gauge(g) => SeriesData::Gauge(g.value()),
                    Metric::Histogram(h) => SeriesData::Histogram(h.snapshot()),
                },
            })
            .collect();
        series.sort_by(|a, b| a.name.cmp(&b.name));
        Snapshot { at_ns, series }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    #[test]
    fn handles_share_one_core_per_name() {
        let registry = Registry::new();
        let a = registry.counter("demo.count");
        let b = registry.counter("demo.count");
        a.inc();
        b.inc();
        assert_eq!(a.total(), 2);
        assert_eq!(registry.snapshot().counter("demo.count"), Some(2));
    }

    #[test]
    fn kind_conflicts_return_detached_handles_not_panics() {
        let registry = Registry::new();
        registry.counter("demo.metric").inc();
        let gauge = registry.gauge("demo.metric");
        gauge.set(9); // goes nowhere visible
        assert_eq!(registry.snapshot().counter("demo.metric"), Some(1));
        let histogram = registry.histogram("demo.metric");
        histogram.record(5);
        assert_eq!(registry.snapshot().counter("demo.metric"), Some(1));
    }

    #[test]
    fn snapshot_is_sorted_and_stamped_by_the_registry_clock() {
        let clock = Arc::new(ManualClock::new(40));
        let registry = Registry::with_clock(clock.clone());
        registry.counter("z.last").inc();
        registry.gauge("a.first").set(2);
        clock.advance(2);
        let snap = registry.snapshot();
        assert_eq!(snap.at_ns, 42);
        let names: Vec<&str> = snap.series.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["a.first", "z.last"]);
    }

    #[test]
    fn global_registry_is_shared() {
        let c = global().counter("obs.registry_test.shared");
        let before = c.total();
        global().counter("obs.registry_test.shared").inc();
        assert_eq!(c.total(), before + 1);
    }
}
