//! The counters and histograms each tier exposes through its public
//! `metrics` verb, read as interval deltas.

use crate::tier::{dial, exchange};
use hems_obs::snapshot::{Bucket, HistogramSnapshot, Series, SeriesData, Snapshot};
use hems_serve::json::{self, Value};
use std::io;
use std::net::SocketAddr;

/// The tier's telemetry snapshot, fetched through its `metrics` verb:
/// a router answers with its own `router.*` series plus each shard's
/// series under `shard<i>.`; a bare server with its `serve.*` series
/// merged with the process-global ones (`pool.*`, `sweep.*`,
/// `core.lut.*`).
///
/// # Errors
///
/// Exchange failures or an unparseable snapshot.
pub fn fetch(addr: SocketAddr) -> io::Result<Telemetry> {
    let mut conn = dial(addr)?;
    let response = exchange(&mut conn, "{\"id\":\"perfbench\",\"query\":\"metrics\"}")?;
    let parsed = json::parse(&response)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    parsed
        .get("result")
        .and_then(snapshot_from_value)
        .map(|snapshot| Telemetry { snapshot })
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "metrics: no snapshot"))
}

fn snapshot_from_value(value: &Value) -> Option<Snapshot> {
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

fn series_from_value(body: &Value) -> Option<SeriesData> {
    let int = |name: &str| body.get(name).and_then(Value::as_f64).map(|v| v as u64);
    match body.get("kind")?.as_str()? {
        "counter" => Some(SeriesData::Counter(int("value")?)),
        "gauge" => Some(SeriesData::Gauge(body.get("value")?.as_f64()? as i64)),
        "histogram" => {
            let mut buckets = Vec::new();
            for entry in body.get("buckets")?.as_arr()? {
                let edge = |i: usize| entry.as_arr()?.get(i)?.as_f64().map(|v| v as u64);
                buckets.push(Bucket {
                    lo: edge(0)?,
                    hi: edge(1)?,
                    n: edge(2)?,
                });
            }
            Some(SeriesData::Histogram(HistogramSnapshot {
                count: int("count")?,
                sum: int("sum")?,
                min: int("min")?,
                max: int("max")?,
                buckets,
            }))
        }
        _ => None,
    }
}

/// One telemetry snapshot (or the difference of two).
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    snapshot: Snapshot,
}

impl Telemetry {
    /// What changed since `earlier`: counters and histograms become
    /// interval deltas.
    pub fn since(&self, earlier: &Telemetry) -> Telemetry {
        Telemetry {
            snapshot: self.snapshot.diff(&earlier.snapshot),
        }
    }

    /// A per-server counter summed over every shard (`name` on a bare
    /// server, `shard<i>.name` behind a router).
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.matching(name)
            .filter_map(|d| match d {
                SeriesData::Counter(n) => Some(*n),
                _ => None,
            })
            .sum()
    }

    /// A process-global counter, counted once although every in-process
    /// shard reports it.
    pub fn counter_once(&self, name: &str) -> u64 {
        match self.matching(name).next() {
            Some(SeriesData::Counter(n)) => *n,
            _ => 0,
        }
    }

    /// A per-server histogram merged bucket by bucket over every shard.
    pub fn histogram_merged(&self, name: &str) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::default();
        for data in self.matching(name) {
            if let SeriesData::Histogram(h) = data {
                merge_into(&mut merged, h);
            }
        }
        merged
    }

    /// A process-global histogram, counted once.
    pub fn histogram_once(&self, name: &str) -> HistogramSnapshot {
        match self.matching(name).next() {
            Some(SeriesData::Histogram(h)) => h.clone(),
            _ => HistogramSnapshot::default(),
        }
    }

    /// Series called `name` or `shard<i>.name`, in shard order.
    fn matching<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SeriesData> + 'a {
        self.snapshot.series.iter().filter_map(move |s| {
            let own = s.name == name
                || s.name.split_once('.').is_some_and(|(prefix, rest)| {
                    rest == name
                        && prefix
                            .strip_prefix("shard")
                            .is_some_and(|i| !i.is_empty() && i.bytes().all(|b| b.is_ascii_digit()))
                });
            own.then_some(&s.data)
        })
    }
}

fn merge_into(into: &mut HistogramSnapshot, from: &HistogramSnapshot) {
    if from.count == 0 {
        return;
    }
    into.min = if into.count == 0 {
        from.min
    } else {
        into.min.min(from.min)
    };
    into.max = into.max.max(from.max);
    into.count += from.count;
    into.sum += from.sum;
    for bucket in &from.buckets {
        match into.buckets.iter_mut().find(|b| b.hi == bucket.hi) {
            Some(b) => b.n += bucket.n,
            None => into.buckets.push(bucket.clone()),
        }
    }
    into.buckets.sort_by_key(|b| b.hi);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn telemetry(series: Vec<(&str, SeriesData)>) -> Telemetry {
        let mut series: Vec<Series> = series
            .into_iter()
            .map(|(name, data)| Series {
                name: name.to_string(),
                data,
            })
            .collect();
        series.sort_by(|a, b| a.name.cmp(&b.name));
        Telemetry {
            snapshot: Snapshot { at_ns: 0, series },
        }
    }

    #[test]
    fn shard_series_sum_and_global_series_count_once() {
        let t = telemetry(vec![
            ("shard0.serve.hits", SeriesData::Counter(3)),
            ("shard1.serve.hits", SeriesData::Counter(4)),
            ("shard0.pool.jobs", SeriesData::Counter(9)),
            ("shard1.pool.jobs", SeriesData::Counter(9)),
            ("router.retries", SeriesData::Counter(1)),
            ("shardx.serve.hits", SeriesData::Counter(100)),
        ]);
        assert_eq!(t.counter_sum("serve.hits"), 7);
        assert_eq!(t.counter_once("pool.jobs"), 9);
        assert_eq!(t.counter_sum("router.retries"), 1);
        assert_eq!(t.counter_once("absent"), 0);
    }

    #[test]
    fn histograms_merge_bucket_by_bucket() {
        let h = |n: u64, lo: u64, hi: u64| {
            SeriesData::Histogram(HistogramSnapshot {
                count: n,
                sum: n * hi,
                min: lo + 1,
                max: hi,
                buckets: vec![Bucket { lo, hi, n }],
            })
        };
        let t = telemetry(vec![
            ("shard0.serve.latency_ns", h(2, 10, 20)),
            ("shard1.serve.latency_ns", h(3, 10, 20)),
            ("shard1.x", h(1, 20, 40)),
        ]);
        let merged = t.histogram_merged("serve.latency_ns");
        assert_eq!(merged.count, 5);
        assert_eq!(merged.buckets.len(), 1);
        assert_eq!(merged.buckets[0].n, 5);
    }
}
