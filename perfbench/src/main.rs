//! The benchmark command:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload plan_hit|plan_miss|fleet_day --seed N --seconds S --trace 0|1
//! ```
//!
//! Diagnostics go to stderr; the last line of stdout is the result:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

#![forbid(unsafe_code)]

use hems_perfbench::{run, Options, Scale, Workload};
use std::process::ExitCode;

const USAGE: &str =
    "usage: hems-perfbench --workload plan_hit|plan_miss|fleet_day --seed N --seconds S --trace 0|1";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut options = Options {
        workload: Workload::PlanHit,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        plant_wrong_answer: false,
    };
    let mut workload = None;
    let mut args = args;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                options.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(options.seconds.is_finite() && options.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    options.workload = workload.ok_or(USAGE)?;
    Ok(options)
}

fn main() -> ExitCode {
    let options = match parse_args(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&options) {
        Ok(report) => report,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::FAILURE;
        }
    };
    for note in &report.notes {
        eprintln!("perfbench: {note}");
    }
    match report.render(options.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
