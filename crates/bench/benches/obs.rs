//! The telemetry-overhead benchmark: what `hems_obs` costs the code it
//! instruments, written to `BENCH_obs.json` at the repo root (under
//! `target/verify/` in smoke mode).
//!
//! Two comparisons:
//!
//! 1. **Warm-sweep overhead** — the same scenario list through the exact
//!    sweep engine (`run_scenarios_chunked` on a `WorkerPool` of the
//!    resolved core count, one scenario per job) with telemetry enabled
//!    vs globally disabled (`hems_obs::set_enabled(false)`, which turns
//!    every record call into one relaxed atomic load). The sweep path
//!    carries spans and counters per scenario, so this is the end-to-end
//!    price of leaving telemetry on. The two configurations are sampled
//!    *interleaved* (disabled/enabled alternating within one loop, order
//!    swapped every other pair) — back-to-back blocks would charge
//!    clock-frequency and thermal drift entirely to whichever config ran
//!    second, which on a shared box is far larger than the effect being
//!    measured. The
//!    headline number is the median of *per-pair* ratios: the two passes
//!    of a pair share machine state, so the ratio cancels drift that
//!    still jitters independent medians by ~1 %. Outside smoke mode the
//!    report asserts that paired overhead is <= 2 %.
//! 2. **Record costs** — per-call nanoseconds for the primitives:
//!    counter inc, histogram record, span guard, and the disabled
//!    counter inc (the kill-switch fast path).
//!
//! Smoke mode (`HEMS_BENCH_SMOKE=1`): one iteration of everything, no
//! overhead assertion (one sample proves nothing).

use hems_bench::harness::{measurement_json, Harness, Measurement};
use hems_obs::clock::monotonic_ns;
use hems_obs::json::Value;
use hems_obs::stats::percentile;
use hems_pv::Irradiance;
use hems_sim::sweep::{self, SweepGrid};
use hems_sim::WorkerPool;
use hems_units::Seconds;
use std::hint::black_box;

/// A modest grid: big enough that one pass dwarfs timer noise, small
/// enough that the comparison pair stays in CI budget.
fn bench_grid() -> SweepGrid {
    let mut grid = SweepGrid::paper_baseline().expect("baseline grid");
    grid.irradiances = vec![Irradiance::FULL_SUN, Irradiance::HALF_SUN];
    grid.duration = Seconds::from_milli(25.0);
    grid
}

fn main() {
    let mut c = Harness::from_env();
    let cores = sweep::resolved_threads(None);
    let grid = bench_grid();
    let scenarios = grid.scenarios().expect("grid expands");
    let pool = WorkerPool::new(cores);
    // One scenario per job, so every worker draws work even on this
    // small list.
    let run = || sweep::run_scenarios_chunked(&scenarios, &pool, 1);
    println!(
        "[obs bench] {} scenarios on {} workers{}",
        grid.len(),
        cores,
        if c.is_smoke() { " (smoke mode)" } else { "" }
    );

    // --- 1. Warm-sweep overhead, interleaved sampling. ---
    // Warm passes so LUTs/allocators are in steady state before either
    // timed configuration runs.
    for _ in 0..if c.is_smoke() { 1 } else { 4 } {
        black_box(run());
    }
    let timed_pass = |enabled: bool| -> f64 {
        hems_obs::set_enabled(enabled);
        let t = monotonic_ns();
        black_box(run());
        monotonic_ns().saturating_sub(t) as f64
    };
    let pairs = if c.is_smoke() { 1 } else { 60 };
    let mut disabled_ns = Vec::with_capacity(pairs);
    let mut enabled_ns = Vec::with_capacity(pairs);
    for i in 0..pairs {
        // Swap within-pair order every other pair so neither config
        // systematically runs on a warmer cache or a later clock ramp.
        if i % 2 == 0 {
            disabled_ns.push(timed_pass(false));
            enabled_ns.push(timed_pass(true));
        } else {
            enabled_ns.push(timed_pass(true));
            disabled_ns.push(timed_pass(false));
        }
    }
    hems_obs::set_enabled(true);
    let summarize = |name: &str, samples: &mut Vec<f64>| -> Measurement {
        samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
        Measurement {
            name: name.to_string(),
            samples: samples.len(),
            batch: 1,
            median_ns: percentile(samples, 50.0),
            p95_ns: percentile(samples, 95.0),
            min_ns: samples[0],
            mean_ns: samples.iter().sum::<f64>() / samples.len() as f64,
        }
    };
    // Paired estimator: each pair's two passes ran back-to-back on the
    // same machine state, so the per-pair ratio cancels slow drift that
    // still jitters the independent medians by ~1% on a shared box. The
    // median of those ratios is the headline overhead.
    let mut ratios: Vec<f64> = enabled_ns
        .iter()
        .zip(&disabled_ns)
        .map(|(e, d)| e / d)
        .collect();
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("ratios are finite"));
    let overhead_paired = percentile(&ratios, 50.0) - 1.0;
    let disabled = summarize("obs/sweep_telemetry_disabled", &mut disabled_ns);
    let enabled = summarize("obs/sweep_telemetry_enabled", &mut enabled_ns);
    let overhead_median = enabled.median_ns / disabled.median_ns - 1.0;
    println!(
        "[obs bench] enabled-vs-disabled overhead: {:+.3}% paired, {:+.3}% of medians",
        overhead_paired * 100.0,
        overhead_median * 100.0
    );
    if !c.is_smoke() {
        assert!(
            overhead_paired <= 0.02,
            "telemetry overhead regression: enabled sweep is {:.2}% slower than disabled \
             (budget: 2%)",
            overhead_paired * 100.0
        );
    }

    // --- 2. Primitive record costs. ---
    let registry = hems_obs::Registry::new();
    let counter = registry.counter("bench.counter");
    let histogram = registry.histogram("bench.histogram_ns");
    let counter_inc = c
        .bench_function("obs/counter_inc", || {
            counter.inc();
            black_box(())
        })
        .clone();
    let mut v = 1u64;
    let histogram_record = c
        .bench_function("obs/histogram_record", || {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            histogram.record(black_box(v >> 40));
            black_box(())
        })
        .clone();
    let span_guard = c
        .bench_function("obs/span_guard", || {
            black_box(registry.span("bench.span_ns"));
        })
        .clone();
    hems_obs::set_enabled(false);
    let disabled_inc = c
        .bench_function("obs/counter_inc_disabled", || {
            counter.inc();
            black_box(())
        })
        .clone();
    hems_obs::set_enabled(true);

    // --- JSON report (repo root; target/verify/ when smoke). ---
    let report = Value::obj(vec![
        ("schema", Value::str("hems-bench-obs/1")),
        ("smoke", Value::Bool(c.is_smoke())),
        ("threads_resolved", Value::Num(cores as f64)),
        ("scenario_count", Value::Num(grid.len() as f64)),
        (
            "sweep_overhead",
            Value::obj(vec![
                ("disabled", measurement_json(&disabled)),
                ("enabled", measurement_json(&enabled)),
                ("overhead_paired", Value::Num(overhead_paired)),
                ("overhead_median", Value::Num(overhead_median)),
                ("budget", Value::Num(0.02)),
            ]),
        ),
        (
            "record_cost",
            Value::obj(vec![
                ("counter_inc", measurement_json(&counter_inc)),
                ("histogram_record", measurement_json(&histogram_record)),
                ("span_guard", measurement_json(&span_guard)),
                ("counter_inc_disabled", measurement_json(&disabled_inc)),
            ]),
        ),
        (
            "all_measurements",
            Value::Arr(
                [&disabled, &enabled]
                    .into_iter()
                    .chain(c.results())
                    .map(measurement_json)
                    .collect(),
            ),
        ),
    ]);
    let path = c.write_report("BENCH_obs.json", &report);

    // Self-validation: the file on disk must carry the headline fields
    // (the verify script relies on the report existing and being sane).
    let written = std::fs::read_to_string(&path).expect("re-read BENCH_obs.json");
    for field in ["schema", "sweep_overhead", "record_cost", "overhead_paired"] {
        assert!(
            written.contains(&format!("\"{field}\"")),
            "report is missing '{field}'"
        );
    }
    println!("[obs bench] wrote {}", path.display());
}
