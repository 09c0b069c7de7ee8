//! The campaign's deterministic JSON-lines report.
//!
//! Same contract as the chaos crate's reports: every line is a
//! [`Value`] that must survive a render → parse → render round trip
//! through the workspace's one JSON codec (`hems_obs::json`), and the whole rendered text
//! is byte-identical for the same `(seed, config)` — including the
//! summary's embedded `hems_obs` snapshot (its manual clock is pinned to
//! simulated time, never the host's). Anything wall-clock-dependent
//! (events/sec, node-steps/sec, peak RSS, serve cache stats) is banished
//! to `BENCH_fleet.json`.

use crate::error::FleetError;
use hems_serve::json::parse;
use hems_serve::Value;

/// What a fleet campaign produced.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// JSON lines in event order: one `config` line, then `storm` and
    /// `day` lines as simulated time passes.
    pub lines: Vec<Value>,
    /// The final `summary` object (totals, digest verdicts, the obs
    /// snapshot) — rendered as the report's last line.
    pub summary: Value,
    /// Sampled crash-consistency violations (contiguity breaks or digest
    /// mismatches). Zero is the acceptance bar.
    pub violations: u64,
    /// Regional brownout storms the weather injected.
    pub storms: u64,
    /// Storms the fleet progressed through with clean sampled digests.
    pub storms_recovered: u64,
    /// Total durably committed task positions, fleet-wide.
    pub committed: u64,
    /// Analytic node advancement segments processed (the bench's
    /// "node-steps" — deterministic, a property of the scenario).
    pub node_steps: u64,
    /// Scheduler events popped (also deterministic).
    pub events: u64,
}

impl FleetReport {
    /// Storms the fleet did *not* demonstrably recover from.
    pub fn unrecovered(&self) -> u64 {
        self.storms.saturating_sub(self.storms_recovered)
    }

    /// Renders every line plus the summary as newline-delimited JSON,
    /// round-tripping each through the codec's parser.
    ///
    /// # Errors
    ///
    /// Errors if any line fails to re-parse or re-render identically —
    /// that would mean the fleet emits frames the service stack itself
    /// could not read.
    pub fn render_lines(&self) -> Result<String, FleetError> {
        let mut out = String::new();
        for line in self.lines.iter().chain(std::iter::once(&self.summary)) {
            let rendered = line.render();
            let reparsed = parse(&rendered)
                .map_err(|e| FleetError::new("report: line round-trip", e.to_string()))?;
            if reparsed.render() != rendered {
                return Err(FleetError::new(
                    "report: line round-trip",
                    "re-render differs from the original line",
                ));
            }
            out.push_str(&rendered);
            out.push('\n');
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_summary_and_round_trips() {
        let report = FleetReport {
            lines: vec![Value::obj(vec![
                ("event", Value::str("config")),
                ("nodes", Value::Num(4.0)),
            ])],
            summary: Value::obj(vec![
                ("event", Value::str("summary")),
                ("committed", Value::Num(12.0)),
            ]),
            violations: 0,
            storms: 3,
            storms_recovered: 2,
            committed: 12,
            node_steps: 100,
            events: 10,
        };
        let text = report.render_lines().expect("render");
        assert_eq!(text.lines().count(), 2);
        assert!(text.ends_with('\n'));
        assert!(text.contains("\"summary\""));
        assert_eq!(report.unrecovered(), 1);
    }
}
