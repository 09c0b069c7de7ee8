//! In-memory spans and the order statistics the metrics are built from.
//!
//! A span is one timed call across a layer boundary: its name, the name
//! of the span that caused it, and start/end on the `hems_obs` monotonic
//! clock. Spans of one request share that request's id. They are kept in
//! memory while the run measures and written out as JSON lines when it
//! ends, so writing costs the measurement nothing.

use hems_obs::clock::monotonic_ns;
use std::io::Write;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The request (or campaign) the span belongs to.
    pub id: u64,
    /// Layer boundary name, e.g. `serve.parse`.
    pub name: &'static str,
    /// The enclosing span's name; empty for a root.
    pub parent: &'static str,
    /// Start, monotonic nanoseconds.
    pub start_ns: u64,
    /// End, monotonic nanoseconds.
    pub end_ns: u64,
    /// Calls the span covers (a batched timing loop records one span
    /// for many calls of a nanosecond-scale function).
    pub calls: u32,
}

impl Span {
    /// Duration of one covered call, nanoseconds.
    pub fn per_call_ns(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / f64::from(self.calls.max(1))
    }
}

/// A span buffer that records nothing when tracing is off.
#[derive(Debug, Default)]
pub struct Spans {
    enabled: bool,
    spans: Vec<Span>,
}

impl Spans {
    /// A buffer; `enabled == false` makes every record a no-op.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            spans: Vec::new(),
        }
    }

    /// Records one span.
    pub fn record(&mut self, span: Span) {
        if self.enabled {
            self.spans.push(span);
        }
    }

    /// Times `f` as a single-call span and returns its result.
    pub fn time<T>(
        &mut self,
        id: u64,
        name: &'static str,
        parent: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start_ns = monotonic_ns();
        let out = f();
        let end_ns = monotonic_ns();
        self.record(Span {
            id,
            name,
            parent,
            start_ns,
            end_ns,
            calls: 1,
        });
        out
    }

    /// Moves another buffer's spans into this one.
    pub fn absorb(&mut self, other: Spans) {
        if self.enabled {
            self.spans.extend(other.spans);
        }
    }

    /// Every recorded span.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Per-call durations of every span called `name`, ascending, ns.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        let mut out: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::per_call_ns)
            .collect();
        out.sort_by(f64::total_cmp);
        out
    }

    /// Median per-call duration of the spans called `name`, ns (0 when
    /// none were recorded).
    pub fn median_ns(&self, name: &str) -> f64 {
        quantile(&self.durations_ns(name), 0.5)
    }

    /// Writes every span as one JSON line to `path`, creating its
    /// directory.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"parent\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"calls\":{}}}",
                s.id, s.name, s.parent, s.start_ns, s.end_ns, s.calls
            )?;
        }
        out.flush()
    }
}

/// Writes a traced run's spans to
/// `.bench_trace/<workload>-seed<seed>.jsonl` under the working
/// directory, and says where (or why not).
pub fn write_trace(workload: &str, seed: u64, spans: &Spans) -> String {
    let path = std::path::Path::new(".bench_trace").join(format!("{workload}-seed{seed}.jsonl"));
    match spans.write_jsonl(&path) {
        Ok(()) => format!("{} spans written to {}", spans.all().len(), path.display()),
        Err(e) => format!("spans not written to {}: {e}", path.display()),
    }
}

/// Interpolated quantile `q ∈ [0, 1]` of an ascending slice; 0 when
/// empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    hems_bench::harness::percentile(sorted, q.clamp(0.0, 1.0) * 100.0)
}

/// Splits `(time, value)` points into consecutive `window_ns` windows
/// by time and returns the median of the windows' medians. A burst of
/// host noise spoils a window or two, not the figure.
pub fn median_of_window_medians(points: &mut [(u64, f64)], window_ns: u64) -> f64 {
    points.sort_by_key(|p| p.0);
    let Some(&(t0, _)) = points.first() else {
        return 0.0;
    };
    let mut medians = Vec::new();
    let mut current = Vec::new();
    let mut window = 0;
    for &(t, value) in points.iter() {
        let k = (t - t0) / window_ns.max(1);
        if k != window && !current.is_empty() {
            medians.push(median(&current));
            current.clear();
        }
        window = k;
        current.push(value);
    }
    if !current.is_empty() {
        medians.push(median(&current));
    }
    median(&medians)
}

/// Events per second in each whole `window_ns` window of
/// `[start_ns, end_ns)`, reduced to their median; the plain rate when
/// the span holds fewer than two windows.
pub fn median_window_rate(times_ns: &[u64], start_ns: u64, end_ns: u64, window_ns: u64) -> f64 {
    let span_ns = end_ns.saturating_sub(start_ns).max(1);
    let windows = span_ns / window_ns.max(1);
    if windows < 2 {
        return times_ns.len() as f64 / (span_ns as f64 / 1e9);
    }
    let mut counts = vec![0u64; windows as usize];
    for &t in times_ns {
        if let Some(c) = counts.get_mut((t.saturating_sub(start_ns) / window_ns) as usize) {
            *c += 1;
        }
    }
    let per_s = 1e9 / window_ns as f64;
    median(&counts.iter().map(|&c| c as f64 * per_s).collect::<Vec<_>>())
}

/// Median of an unsorted sample; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// `num / den`, 0 when `den` is 0.
pub fn share(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_buffers_keep_nothing() {
        let mut spans = Spans::new(false);
        assert_eq!(spans.time(1, "a", "", || 7), 7);
        assert!(spans.all().is_empty());
    }

    #[test]
    fn batched_spans_report_per_call_time() {
        let mut spans = Spans::new(true);
        spans.record(Span {
            id: 1,
            name: "x",
            parent: "",
            start_ns: 100,
            end_ns: 500,
            calls: 4,
        });
        assert_eq!(spans.median_ns("x"), 100.0);
        assert_eq!(spans.median_ns("missing"), 0.0);
    }

    #[test]
    fn medians_and_shares() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(share(1, 4), 0.25);
        assert_eq!(share(1, 0), 0.0);
    }
}
