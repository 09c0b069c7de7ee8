//! Immutable snapshots of a registry: merged series, quantile
//! estimation, interval diffing, and JSON export.
//!
//! Export goes through the workspace's one codec: [`Snapshot::to_value`]
//! builds a [`Value`] of integers under sorted keys, which the `metrics`
//! query verb, the chaos report and the fleet summary embed directly, and
//! [`Snapshot::render`] is its compact rendering. There is no second
//! writer, so `parse(render()) == to_value()` holds by construction.

use crate::json::Value;

/// One histogram bucket: samples in `(lo, hi]` (the first bucket
/// starts at 0 inclusive).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bucket {
    /// Lower edge (exclusive, except 0).
    pub lo: u64,
    /// Upper edge (inclusive).
    pub hi: u64,
    /// Samples in the bucket.
    pub n: u64,
}

/// Merged histogram state at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Non-empty buckets, ascending by bound.
    pub buckets: Vec<Bucket>,
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (`0.0..=1.0`) by linear
    /// interpolation inside the bucket holding that rank, clamped to
    /// the exact observed `[min, max]`. Resolution is the bucket
    /// width: exact for values ≤ 16, within ~19% beyond that.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.count.saturating_sub(1)) as f64;
        let mut before = 0u64;
        for bucket in &self.buckets {
            let after = before + bucket.n;
            if (after as f64) > rank {
                let into = (rank - before as f64 + 1.0) / bucket.n as f64;
                let lo = bucket.lo as f64;
                let hi = bucket.hi as f64;
                let value = lo + into.clamp(0.0, 1.0) * (hi - lo);
                return value.clamp(self.min as f64, self.max as f64);
            }
            before = after;
        }
        self.max as f64
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// This snapshot minus an `earlier` one of the same histogram:
    /// per-bucket and total deltas. `min`/`max` keep the later values
    /// (they are lifetime extremes, not interval ones).
    pub fn diff(&self, earlier: &Self) -> Self {
        let mut buckets = Vec::new();
        for bucket in &self.buckets {
            let prior = earlier
                .buckets
                .iter()
                .find(|b| b.hi == bucket.hi)
                .map(|b| b.n)
                .unwrap_or(0);
            let n = bucket.n.saturating_sub(prior);
            if n > 0 {
                buckets.push(Bucket { n, ..*bucket });
            }
        }
        Self {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            min: self.min,
            max: self.max,
            buckets,
        }
    }
}

/// One named series in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Registry name, e.g. `sweep.scenarios`.
    pub name: String,
    /// The merged value.
    pub data: SeriesData,
}

/// The value side of a [`Series`].
#[derive(Debug, Clone, PartialEq)]
pub enum SeriesData {
    /// Monotonic total.
    Counter(u64),
    /// Instantaneous level.
    Gauge(i64),
    /// Merged histogram.
    Histogram(HistogramSnapshot),
}

/// A point-in-time view of a registry: every series, merged across
/// stripes, sorted by name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Registry clock reading at snapshot time (interval length for
    /// snapshots produced by [`Snapshot::diff`]).
    pub at_ns: u64,
    /// All series, ascending by name.
    pub series: Vec<Series>,
}

impl Snapshot {
    /// Looks up one series by name.
    pub fn get(&self, name: &str) -> Option<&SeriesData> {
        self.series
            .binary_search_by(|s| s.name.as_str().cmp(name))
            .ok()
            .and_then(|i| self.series.get(i))
            .map(|s| &s.data)
    }

    /// Counter total by name (`None` if absent or not a counter).
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            Some(SeriesData::Counter(n)) => Some(*n),
            _ => None,
        }
    }

    /// Gauge level by name (`None` if absent or not a gauge).
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.get(name) {
            Some(SeriesData::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Histogram by name (`None` if absent or not a histogram).
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.get(name) {
            Some(SeriesData::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// The same snapshot with every series renamed to
    /// `<prefix>.<name>`. This is how a multi-shard aggregator keeps
    /// per-shard series distinguishable under [`Snapshot::merged`]
    /// (which drops colliding names): label each shard's snapshot —
    /// `shard0.serve.hits`, `shard1.serve.hits` — before merging.
    pub fn with_prefix(mut self, prefix: &str) -> Snapshot {
        for series in &mut self.series {
            series.name = format!("{prefix}.{}", series.name);
        }
        // Prefixing preserves relative order of the sorted names, so the
        // series stay ascending and `get`'s binary search stays valid.
        self
    }

    /// Union of two snapshots (e.g. the process-global registry plus a
    /// component's private one). On a name collision `self` wins.
    pub fn merged(mut self, other: Snapshot) -> Snapshot {
        for series in other.series {
            if self.get(&series.name).is_none() {
                self.series.push(series);
            }
        }
        self.series.sort_by(|a, b| a.name.cmp(&b.name));
        self
    }

    /// Interval view: this snapshot minus an `earlier` one. Counters
    /// and histogram totals become deltas, gauges keep their later
    /// level, and `at_ns` becomes the interval length — so
    /// `delta.counter(name) / delta.at_ns` is a rate.
    pub fn diff(&self, earlier: &Snapshot) -> Snapshot {
        let series = self
            .series
            .iter()
            .map(|s| {
                let data = match (&s.data, earlier.get(&s.name)) {
                    (SeriesData::Counter(now), Some(SeriesData::Counter(then))) => {
                        SeriesData::Counter(now.saturating_sub(*then))
                    }
                    (SeriesData::Histogram(now), Some(SeriesData::Histogram(then))) => {
                        SeriesData::Histogram(now.diff(then))
                    }
                    (data, _) => data.clone(),
                };
                Series {
                    name: s.name.clone(),
                    data,
                }
            })
            .collect();
        Snapshot {
            at_ns: self.at_ns.saturating_sub(earlier.at_ns),
            series,
        }
    }

    /// The snapshot as one JSON object:
    ///
    /// ```json
    /// {"at_ns":12,"series":{"name":{"kind":"counter","value":3},...}}
    /// ```
    ///
    /// Histograms carry `count`/`sum`/`min`/`max`, rounded `p50`/`p95`
    /// estimates, and their non-empty `[lo,hi,n]` buckets. All values
    /// are integers, exact in the codec's f64 numbers below 2^53.
    pub fn to_value(&self) -> Value {
        let series = self
            .series
            .iter()
            .map(|s| (s.name.clone(), series_value(&s.data)))
            .collect();
        Value::obj(vec![
            ("at_ns", int(self.at_ns)),
            ("series", Value::Obj(series)),
        ])
    }

    /// Rebuilds a snapshot from its [`Snapshot::to_value`] tree (e.g. a
    /// `metrics` answer parsed off the wire). The tree is integer-only,
    /// so the round trip is exact; series of unrecognized shape are
    /// skipped. `None` when the tree is not a snapshot at all.
    pub fn from_value(value: &Value) -> Option<Snapshot> {
        let at_ns = value.get("at_ns")?.as_f64()? as u64;
        let Some(Value::Obj(fields)) = value.get("series") else {
            return None;
        };
        let mut series: Vec<Series> = fields
            .iter()
            .filter_map(|(name, body)| {
                Some(Series {
                    name: name.clone(),
                    data: series_from_value(body)?,
                })
            })
            .collect();
        series.sort_by(|a, b| a.name.cmp(&b.name));
        Some(Snapshot { at_ns, series })
    }

    /// [`Snapshot::to_value`] rendered as compact JSON.
    pub fn render(&self) -> String {
        self.to_value().render()
    }

    /// JSON-lines export: one self-describing object per series, each
    /// line independently parseable.
    pub fn render_lines(&self) -> String {
        let mut out = String::new();
        for series in &self.series {
            let line = Value::obj(vec![
                ("at_ns", int(self.at_ns)),
                ("name", Value::str(&series.name)),
                ("data", series_value(&series.data)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }
}

fn int(n: u64) -> Value {
    Value::Num(n as f64)
}

fn series_value(data: &SeriesData) -> Value {
    match data {
        SeriesData::Counter(n) => {
            Value::obj(vec![("kind", Value::str("counter")), ("value", int(*n))])
        }
        SeriesData::Gauge(v) => Value::obj(vec![
            ("kind", Value::str("gauge")),
            ("value", Value::Num(*v as f64)),
        ]),
        SeriesData::Histogram(h) => {
            let buckets = h
                .buckets
                .iter()
                .map(|b| Value::Arr(vec![int(b.lo), int(b.hi), int(b.n)]))
                .collect();
            Value::obj(vec![
                ("kind", Value::str("histogram")),
                ("count", int(h.count)),
                ("sum", int(h.sum)),
                ("min", int(h.min)),
                ("max", int(h.max)),
                ("p50", int(h.quantile(0.50).round() as u64)),
                ("p95", int(h.quantile(0.95).round() as u64)),
                ("buckets", Value::Arr(buckets)),
            ])
        }
    }
}

/// Inverse of [`series_value`]; the derived `p50`/`p95` fields are
/// recomputed from the buckets, not read.
fn series_from_value(body: &Value) -> Option<SeriesData> {
    let field = |name: &str| body.get(name).and_then(Value::as_f64);
    match body.get("kind")?.as_str()? {
        "counter" => Some(SeriesData::Counter(field("value")? as u64)),
        "gauge" => Some(SeriesData::Gauge(field("value")? as i64)),
        "histogram" => {
            let mut buckets = Vec::new();
            for entry in body.get("buckets")?.as_arr()? {
                let edges = entry.as_arr()?;
                let at = |i: usize| edges.get(i).and_then(Value::as_f64);
                buckets.push(Bucket {
                    lo: at(0)? as u64,
                    hi: at(1)? as u64,
                    n: at(2)? as u64,
                });
            }
            Some(SeriesData::Histogram(HistogramSnapshot {
                count: field("count")? as u64,
                sum: field("sum")? as u64,
                min: field("min")? as u64,
                max: field("max")? as u64,
                buckets,
            }))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::bounds;

    /// Index of an upper bound in the shared bounds table.
    fn bound_index(hi: u64) -> Option<usize> {
        bounds().iter().position(|b| *b == hi)
    }

    fn sample_hist(values: &[u64]) -> HistogramSnapshot {
        let h = crate::metrics::Histogram::detached();
        for v in values {
            h.record(*v);
        }
        h.snapshot()
    }

    #[test]
    fn quantile_is_exact_for_small_integer_samples() {
        let h = sample_hist(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert!((h.quantile(0.0) - 1.0).abs() < 1e-9);
        assert!((h.quantile(1.0) - 10.0).abs() < 1e-9);
        let p50 = h.quantile(0.5);
        assert!((5.0..=6.0).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn quantile_tracks_sorted_percentile_within_bucket_resolution() {
        // Uniform 1..=10_000: bucket interpolation must stay within
        // one bucket width (~19% relative) of the exact percentile.
        let values: Vec<u64> = (1..=10_000u64).collect();
        let h = sample_hist(&values);
        for (q, exact) in [(0.5, 5_000.5), (0.95, 9_500.05), (0.99, 9_900.01)] {
            let est = h.quantile(q);
            let rel = (est - exact).abs() / exact;
            assert!(rel < 0.19, "q={q}: est {est} vs exact {exact} ({rel})");
        }
    }

    #[test]
    fn histogram_diff_subtracts_counts_and_buckets() {
        let h = crate::metrics::Histogram::detached();
        h.record(5);
        h.record(5);
        let earlier = h.snapshot();
        h.record(5);
        h.record(900);
        let later = h.snapshot();
        let delta = later.diff(&earlier);
        assert_eq!(delta.count, 2);
        assert_eq!(delta.sum, 905);
        let total: u64 = delta.buckets.iter().map(|b| b.n).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn snapshot_lookup_merge_and_diff() {
        let a = Snapshot {
            at_ns: 100,
            series: vec![
                Series {
                    name: "a.count".into(),
                    data: SeriesData::Counter(10),
                },
                Series {
                    name: "a.depth".into(),
                    data: SeriesData::Gauge(3),
                },
            ],
        };
        let b = Snapshot {
            at_ns: 90,
            series: vec![Series {
                name: "b.count".into(),
                data: SeriesData::Counter(7),
            }],
        };
        let merged = a.clone().merged(b);
        assert_eq!(merged.counter("a.count"), Some(10));
        assert_eq!(merged.counter("b.count"), Some(7));
        assert_eq!(merged.gauge("a.depth"), Some(3));
        assert!(merged.get("missing").is_none());

        let earlier = Snapshot {
            at_ns: 40,
            series: vec![Series {
                name: "a.count".into(),
                data: SeriesData::Counter(4),
            }],
        };
        let delta = a.diff(&earlier);
        assert_eq!(delta.at_ns, 60);
        assert_eq!(delta.counter("a.count"), Some(6));
        assert_eq!(delta.gauge("a.depth"), Some(3));
    }

    #[test]
    fn prefixed_snapshots_merge_without_collisions() {
        let shard = |value: u64| Snapshot {
            at_ns: 7,
            series: vec![Series {
                name: "serve.hits".into(),
                data: SeriesData::Counter(value),
            }],
        };
        let merged = shard(3)
            .with_prefix("shard0")
            .merged(shard(9).with_prefix("shard1"));
        assert_eq!(merged.counter("shard0.serve.hits"), Some(3));
        assert_eq!(merged.counter("shard1.serve.hits"), Some(9));
        assert!(merged.get("serve.hits").is_none());
    }

    #[test]
    fn render_is_compact_integer_only_json() {
        let snap = Snapshot {
            at_ns: 5,
            series: vec![
                Series {
                    name: "c".into(),
                    data: SeriesData::Counter(2),
                },
                Series {
                    name: "g".into(),
                    data: SeriesData::Gauge(-1),
                },
                Series {
                    name: "h".into(),
                    data: SeriesData::Histogram(sample_hist(&[3, 3])),
                },
            ],
        };
        let text = snap.render();
        assert_eq!(
            text,
            "{\"at_ns\":5,\"series\":{\"c\":{\"kind\":\"counter\",\"value\":2},\
             \"g\":{\"kind\":\"gauge\",\"value\":-1},\
             \"h\":{\"kind\":\"histogram\",\"count\":2,\"sum\":6,\"min\":3,\"max\":3,\
             \"p50\":3,\"p95\":3,\"buckets\":[[2,3,2]]}}}"
        );
        assert_eq!(crate::json::parse(&text), Ok(snap.to_value()));
        let lines = snap.render_lines();
        assert_eq!(lines.lines().count(), 3);
        for line in lines.lines() {
            assert!(line.starts_with("{\"at_ns\":5,\"name\":"));
        }
    }

    #[test]
    fn from_value_inverts_to_value() {
        let snap = Snapshot {
            at_ns: 77,
            series: vec![
                Series {
                    name: "a.counter".into(),
                    data: SeriesData::Counter(12),
                },
                Series {
                    name: "b.gauge".into(),
                    data: SeriesData::Gauge(-4),
                },
                Series {
                    name: "c.histogram".into(),
                    data: SeriesData::Histogram(sample_hist(&[1, 5, 900, 40_000])),
                },
            ],
        };
        assert_eq!(Snapshot::from_value(&snap.to_value()), Some(snap.clone()));
        let wire = crate::json::parse(&snap.render()).expect("renders valid JSON");
        assert_eq!(Snapshot::from_value(&wire), Some(snap));
        assert_eq!(Snapshot::from_value(&Value::Null), None);
    }

    #[test]
    fn bucket_edges_line_up_with_the_bounds_table() {
        let h = sample_hist(&[100]);
        let bucket = h.buckets.first().expect("one bucket");
        let i = bound_index(bucket.hi).expect("hi is a table bound");
        assert!(bucket.lo < bucket.hi);
        if i > 0 {
            assert_eq!(Some(bucket.lo), bounds().get(i - 1).copied());
        }
    }
}
