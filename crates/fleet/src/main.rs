//! The `hems-fleet` bin: run a seed-reproducible fleet campaign.
//!
//! ```text
//! hems-fleet [--seed N] [--nodes N] [--days N] [--smoke] [--analytic] [--out PATH]
//! ```
//!
//! Prints the campaign's JSON-lines report (config, storm, day lines and
//! the summary — every byte a function of `(seed, config)`), then writes
//! wall-clock figures to `--out` (default `BENCH_fleet.json`): node
//! steps/sec, events/sec, simulated node-seconds per wall second, bytes
//! per node, peak RSS, and a scaling sweep at 1k/10k/100k nodes. Exits
//! nonzero if any run saw a crash-consistency violation or an
//! unrecovered storm — the CI contract `scripts/verify.sh` gates on.
//!
//! Planning is serve-backed by default: a loopback `hems-serve` instance
//! is spun up and every dawn wave's plan request goes through the real
//! client/cache/solve path. `--analytic` swaps in the pure in-process
//! planner (identical answers, no sockets).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hems_fleet::{
    AnalyticPlans, Fleet, FleetConfig, FleetError, FleetReport, PlanSource, ServePlans,
};
use hems_obs::clock::monotonic_ns;
use hems_obs::stats::{fmt_ns, peak_rss_bytes};
use hems_serve::server::{serve, ServeConfig};
use hems_serve::Value;
use std::process::ExitCode;

struct Args {
    seed: u64,
    nodes: Option<u32>,
    days: u32,
    smoke: bool,
    analytic: bool,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 7,
        nodes: None,
        days: 2,
        smoke: false,
        analytic: false,
        out: "BENCH_fleet.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                let value = it.next().ok_or("--seed needs a value")?;
                args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?;
            }
            "--nodes" => {
                let value = it.next().ok_or("--nodes needs a value")?;
                args.nodes = Some(value.parse().map_err(|e| format!("--nodes {value}: {e}"))?);
            }
            "--days" => {
                let value = it.next().ok_or("--days needs a value")?;
                args.days = value.parse().map_err(|e| format!("--days {value}: {e}"))?;
            }
            "--smoke" => args.smoke = true,
            "--analytic" => args.analytic = true,
            "--out" => args.out = it.next().ok_or("--out needs a path")?,
            "--help" | "-h" => {
                return Err(
                    "usage: hems-fleet [--seed N] [--nodes N] [--days N] [--smoke] [--analytic] [--out PATH]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown argument '{other}' (see --help)")),
        }
    }
    Ok(args)
}

/// One timed campaign: the report plus the wall-clock it took.
struct TimedRun {
    config: FleetConfig,
    report: FleetReport,
    wall_ns: u64,
}

impl TimedRun {
    fn node_steps_per_sec(&self) -> f64 {
        rate(self.report.node_steps, self.wall_ns)
    }

    fn events_per_sec(&self) -> f64 {
        rate(self.report.events, self.wall_ns)
    }

    /// Simulated node-seconds retired per wall second — the digital
    /// twin's speedup over the physical fleet it models.
    fn node_seconds_per_sec(&self) -> f64 {
        let sim = self.config.nodes as u64 * self.config.days as u64 * 86_400;
        rate(sim, self.wall_ns)
    }
}

fn rate(count: u64, wall_ns: u64) -> f64 {
    if wall_ns == 0 {
        return 0.0;
    }
    count as f64 / (wall_ns as f64 / 1e9)
}

fn run_one(config: FleetConfig, source: &mut dyn PlanSource) -> Result<TimedRun, FleetError> {
    let fleet = Fleet::new(config)?;
    let t0 = monotonic_ns();
    let report = fleet.run(source)?;
    let wall_ns = monotonic_ns().saturating_sub(t0);
    Ok(TimedRun {
        config,
        report,
        wall_ns,
    })
}

fn scaling_entry(run: &TimedRun) -> Value {
    Value::obj(vec![
        ("nodes", Value::Num(run.config.nodes as f64)),
        ("days", Value::Num(run.config.days as f64)),
        ("node_steps", Value::Num(run.report.node_steps as f64)),
        ("events", Value::Num(run.report.events as f64)),
        ("committed", Value::Num(run.report.committed as f64)),
        ("violations", Value::Num(run.report.violations as f64)),
        ("unrecovered", Value::Num(run.report.unrecovered() as f64)),
        ("wall_ns", Value::Num(run.wall_ns as f64)),
        ("node_steps_per_sec", Value::Num(run.node_steps_per_sec())),
        ("events_per_sec", Value::Num(run.events_per_sec())),
        (
            "node_seconds_per_sec",
            Value::Num(run.node_seconds_per_sec()),
        ),
    ])
}

fn run(args: &Args) -> Result<u64, FleetError> {
    // The plan source: a loopback serve instance unless --analytic.
    let mut server = None;
    let mut source: Box<dyn PlanSource> = if args.analytic {
        Box::new(AnalyticPlans::new())
    } else {
        let handle = serve("127.0.0.1:0", ServeConfig::default())
            .map_err(|e| FleetError::new("fleet: loopback serve", e.to_string()))?;
        let plans = ServePlans::new(handle.addr());
        server = Some(handle);
        Box::new(plans)
    };

    let sizes: Vec<u32> = if args.smoke {
        vec![FleetConfig::smoke(args.seed).nodes]
    } else if let Some(nodes) = args.nodes {
        vec![nodes]
    } else {
        vec![1_000, 10_000, 100_000]
    };
    let mut runs = Vec::new();
    for nodes in &sizes {
        let config = if args.smoke {
            FleetConfig::smoke(args.seed)
        } else {
            let mut c = FleetConfig::new(args.seed, *nodes);
            c.days = args.days;
            c
        };
        let run = run_one(config, source.as_mut())?;
        eprintln!(
            "fleet: {} nodes x {} days in {}  ({:.0} node-steps/s, {:.0} events/s, {:.0}x realtime)",
            run.config.nodes,
            run.config.days,
            fmt_ns(run.wall_ns as f64),
            run.node_steps_per_sec(),
            run.events_per_sec(),
            run.node_seconds_per_sec() / run.config.nodes.max(1) as f64,
        );
        runs.push(run);
    }
    if let Some(handle) = server.as_mut() {
        handle.shutdown();
    }

    // The headline run (largest fleet) prints its full deterministic
    // report; wall-clock figures stay out of it by construction.
    let Some(headline) = runs.last() else {
        return Err(FleetError::new("fleet: bench", "no runs executed"));
    };
    print!("{}", headline.report.render_lines()?);

    let failures: u64 = runs
        .iter()
        .map(|r| r.report.violations + r.report.unrecovered())
        .sum();
    let bench = Value::obj(vec![
        ("bench", Value::str("fleet")),
        ("seed", Value::Num(args.seed as f64)),
        ("source", Value::str(source.name())),
        ("smoke", Value::Bool(args.smoke)),
        ("nodes", Value::Num(headline.config.nodes as f64)),
        ("days", Value::Num(headline.config.days as f64)),
        (
            "bytes_per_node",
            Value::Num(std::mem::size_of::<hems_fleet::NodeState>() as f64),
        ),
        (
            "node_steps_per_sec",
            Value::Num(headline.node_steps_per_sec()),
        ),
        ("events_per_sec", Value::Num(headline.events_per_sec())),
        (
            "node_seconds_per_sec",
            Value::Num(headline.node_seconds_per_sec()),
        ),
        ("committed", Value::Num(headline.report.committed as f64)),
        ("violations", Value::Num(headline.report.violations as f64)),
        ("storms", Value::Num(headline.report.storms as f64)),
        (
            "storms_recovered",
            Value::Num(headline.report.storms_recovered as f64),
        ),
        (
            "peak_rss_bytes",
            match peak_rss_bytes() {
                Some(rss) => Value::Num(rss as f64),
                None => Value::Num(f64::NAN),
            },
        ),
        (
            "scaling",
            Value::Arr(runs.iter().map(scaling_entry).collect()),
        ),
    ]);
    std::fs::write(&args.out, format!("{}\n", bench.render_pretty()))
        .map_err(|e| FleetError::new("fleet: write bench", e.to_string()))?;
    eprintln!(
        "fleet: seed {} source {} violations {} unrecovered {} -> {}",
        args.seed,
        source.name(),
        headline.report.violations,
        headline.report.unrecovered(),
        args.out
    );
    Ok(failures)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(failures) => {
            eprintln!(
                "fleet: {failures} violation(s)/unrecovered storm(s) — replay with --seed {}",
                args.seed
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("fleet: {e}");
            ExitCode::FAILURE
        }
    }
}
