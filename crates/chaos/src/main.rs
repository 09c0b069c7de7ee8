//! The `hems-chaos` bin: run a seeded fault-injection campaign.
//!
//! ```text
//! hems-chaos [--seed N] [--smoke] [--out PATH]
//! ```
//!
//! Prints one JSON line per injected fault (each validated through the
//! wire codec, `hems_obs::json`), writes the survival summary to `--out`
//! (default `BENCH_chaos.json`), and exits nonzero if any fault went
//! unrecovered — the CI contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hems_chaos::{run_campaign, CampaignConfig, ChaosError};
use std::process::ExitCode;

struct Args {
    seed: u64,
    smoke: bool,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 7,
        smoke: false,
        out: "BENCH_chaos.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                let value = it.next().ok_or("--seed needs a value")?;
                args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?;
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = it.next().ok_or("--out needs a path")?,
            "--help" | "-h" => {
                return Err("usage: hems-chaos [--seed N] [--smoke] [--out PATH]".to_string())
            }
            other => return Err(format!("unknown argument '{other}' (see --help)")),
        }
    }
    Ok(args)
}

fn run(args: &Args) -> Result<u64, ChaosError> {
    let config = if args.smoke {
        CampaignConfig::smoke(args.seed)
    } else {
        CampaignConfig::full(args.seed)
    };
    let campaign = run_campaign(&config)?;
    print!("{}", campaign.render_lines()?);
    std::fs::write(&args.out, format!("{}\n", campaign.summary.render()))
        .map_err(|e| ChaosError::new("write summary", e.to_string()))?;
    eprintln!(
        "chaos: seed {} injected {} recovered {} -> {}",
        config.seed, campaign.injected, campaign.recovered, args.out
    );
    Ok(campaign.unrecovered())
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
        Ok(unrecovered) => {
            eprintln!(
                "chaos: {unrecovered} unrecovered fault(s) — replay with --seed {}",
                args.seed
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("chaos: {e}");
            ExitCode::FAILURE
        }
    }
}
