//! Campaign orchestration and reporting.
//!
//! A campaign runs all five surfaces, collects one JSON line per
//! injected fault, and validates every line through the workspace's JSON
//! codec (`hems_obs::json`, the serve wire format) before it is emitted —
//! the report exercises the same wire machinery the chaos proxy attacks.
//! The summary becomes `BENCH_chaos.json`: per-surface injected/recovered
//! counts and survival rates, keyed by the seed so any failure is
//! replayable.

use crate::error::ChaosError;
use crate::plan::CampaignConfig;
use crate::{compute, fleet, net, power, router};
use hems_obs::{ManualClock, Registry};
use hems_serve::json::{parse, Value};
use std::sync::Arc;

/// A finished campaign.
#[derive(Debug)]
pub struct Campaign {
    /// Every report line, in emission order.
    pub lines: Vec<Value>,
    /// The `BENCH_chaos.json` summary object.
    pub summary: Value,
    /// Faults injected across all surfaces.
    pub injected: u64,
    /// Faults recovered across all surfaces.
    pub recovered: u64,
}

impl Campaign {
    /// Faults that were injected but not absorbed. A healthy stack
    /// reports zero.
    pub fn unrecovered(&self) -> u64 {
        self.injected.saturating_sub(self.recovered)
    }

    /// Renders the JSON-lines report, round-tripping every line through
    /// the codec's parser.
    ///
    /// # Errors
    ///
    /// Errors if any line fails to re-parse or re-render identically —
    /// that would mean the reporter emits frames the service stack
    /// itself could not read.
    pub fn render_lines(&self) -> Result<String, ChaosError> {
        let mut out = String::new();
        for line in &self.lines {
            let rendered = line.render();
            let reparsed = parse(&rendered)
                .map_err(|e| ChaosError::new("report: line round-trip", e.to_string()))?;
            if reparsed.render() != rendered {
                return Err(ChaosError::new(
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

fn rate(recovered: u64, injected: u64) -> f64 {
    if injected == 0 {
        1.0
    } else {
        recovered as f64 / injected as f64
    }
}

fn surface_summary(name: &str, injected: u64, recovered: u64) -> Value {
    Value::obj(vec![
        ("surface", Value::str(name)),
        ("injected", Value::Num(injected as f64)),
        ("recovered", Value::Num(recovered as f64)),
        ("survival_rate", Value::Num(rate(recovered, injected))),
    ])
}

/// Runs the full seeded campaign: power, compute, I/O, then fleet.
///
/// # Errors
///
/// Errors when a campaign harness cannot start; injected faults that
/// fail to recover are *results* (see [`Campaign::unrecovered`]), not
/// errors.
pub fn run_campaign(config: &CampaignConfig) -> Result<Campaign, ChaosError> {
    // Quietens the intentionally injected panics (and counts any genuine
    // server-side ones) for every surface, not just net.
    net::install_panic_probe();
    // One fresh registry per campaign, on a manual clock pinned to zero:
    // fault counters accumulate here (not in the process-global registry,
    // which would double-count across same-seed runs in one process), and
    // the snapshot's `at_ns` stays byte-identical under a fixed seed.
    let registry = Registry::with_clock(Arc::new(ManualClock::new(0)));
    let power = power::run(config, &registry)?;
    let compute = compute::run(config, &registry)?;
    let net = net::run(config, &registry)?;
    let fleet = fleet::run(config, &registry)?;
    let router = router::run(config, &registry)?;

    // The summary's fault counts come from the shared registry, not the
    // per-surface structs — the snapshot below *is* the ledger.
    let obs = registry.snapshot();
    let count = |name: &str| obs.counter(name).unwrap_or(0);
    let surfaces: Vec<Value> = ["power", "compute", "net", "fleet", "router"]
        .iter()
        .map(|surface| {
            surface_summary(
                surface,
                count(&format!("chaos.{surface}.injected")),
                count(&format!("chaos.{surface}.recovered")),
            )
        })
        .collect();
    let injected: u64 = ["power", "compute", "net", "fleet", "router"]
        .iter()
        .map(|s| count(&format!("chaos.{s}.injected")))
        .sum();
    let recovered: u64 = ["power", "compute", "net", "fleet", "router"]
        .iter()
        .map(|s| count(&format!("chaos.{s}.recovered")))
        .sum();
    let mut lines = Vec::new();
    lines.extend(power.lines);
    lines.extend(compute.lines);
    lines.extend(net.lines);
    lines.extend(fleet.lines);
    lines.extend(router.lines);

    let summary = Value::obj(vec![
        ("bench", Value::str("chaos")),
        ("seed", Value::Num(config.seed as f64)),
        ("surfaces", Value::Arr(surfaces)),
        ("injected", Value::Num(injected as f64)),
        ("recovered", Value::Num(recovered as f64)),
        (
            "unrecovered",
            Value::Num(injected.saturating_sub(recovered) as f64),
        ),
        ("survival_rate", Value::Num(rate(recovered, injected))),
        ("serve_panics", Value::Num(net.serve_panics as f64)),
        ("obs", obs.to_value()),
    ]);
    lines.push(Value::obj(vec![
        ("surface", Value::str("campaign")),
        ("summary", summary.clone()),
    ]));

    Ok(Campaign {
        lines,
        summary,
        injected,
        recovered,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_campaign_recovers_everything_and_reproduces_byte_for_byte() {
        // The headline acceptance check: two runs with the same seed emit
        // the identical report, and nothing goes unrecovered.
        let config = CampaignConfig::smoke(7);
        let first = run_campaign(&config).expect("first run");
        assert_eq!(first.unrecovered(), 0, "{}", first.summary.render());
        // The summary embeds the campaign's obs snapshot, and its counts
        // agree with the headline numbers (they are the same ledger).
        let obs = first.summary.get("obs").expect("obs snapshot in summary");
        let series = obs.get("series").expect("series object");
        let injected_sum: f64 = ["power", "compute", "net", "fleet", "router"]
            .iter()
            .map(|s| {
                series
                    .get(&format!("chaos.{s}.injected"))
                    .and_then(|v| v.get("value"))
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0)
            })
            .sum();
        assert_eq!(injected_sum, first.injected as f64);
        let text_a = first.render_lines().expect("render");
        let second = run_campaign(&config).expect("second run");
        let text_b = second.render_lines().expect("render");
        assert_eq!(text_a, text_b, "same seed, same bytes");
        // A different seed must actually change the faults.
        let other = run_campaign(&CampaignConfig::smoke(8)).expect("third run");
        assert_eq!(other.unrecovered(), 0);
        assert_ne!(
            text_a,
            other.render_lines().expect("render"),
            "the seed reaches the injected faults"
        );
    }

    #[test]
    fn survival_rate_handles_zero_injection() {
        assert_eq!(rate(0, 0), 1.0);
        assert_eq!(rate(1, 2), 0.5);
    }
}
