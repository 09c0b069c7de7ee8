//! `hems` — command-line front end for the SOCC 2018 reproduction.
//!
//! ```text
//! hems iv --light 0.5                    # I-V / P-V table at a light level
//! hems plan --light 1.0 --regulator sc   # eqs. 1-4 optimal operating plan
//! hems mep --regulator buck              # conventional vs holistic MEP
//! hems paper --out BENCH_paper.json      # every figure series + the claim rows
//! hems simulate --mode maxperf --duration 0.5 --csv trace.csv
//! ```
//!
//! Argument parsing is deliberately dependency-free (no clap): flags are
//! `--name value` pairs after a subcommand.

use hems_repro::core::{mep, optimal_voltage, HolisticController, Mode};
use hems_repro::cpu::Microprocessor;
use hems_repro::paper;
use hems_repro::pv::{Irradiance, SolarCell};
use hems_repro::regulator::{AnyRegulator, BuckRegulator, Ldo, Regulator, ScRegulator};
use hems_repro::sim::{LightProfile, Simulation, SystemConfig};
use hems_repro::units::{Seconds, Volts};
use std::collections::BTreeMap;
use std::process::ExitCode;

type Flags = BTreeMap<String, String>;

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected a --flag, got '{key}'"));
        };
        let Some(value) = it.next() else {
            return Err(format!("flag --{name} needs a value"));
        };
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn light_from(flags: &Flags) -> Result<Irradiance, String> {
    let raw = flags.get("light").map(String::as_str).unwrap_or("1.0");
    let fraction: f64 = raw
        .parse()
        .map_err(|_| format!("--light expects a number in [0, 2], got '{raw}'"))?;
    Irradiance::new(fraction).map_err(|e| e.to_string())
}

fn regulator_from(flags: &Flags) -> Result<AnyRegulator, String> {
    match flags.get("regulator").map(String::as_str).unwrap_or("sc") {
        "sc" => Ok(AnyRegulator::from(ScRegulator::paper_65nm())),
        "buck" => Ok(AnyRegulator::from(BuckRegulator::paper_65nm())),
        "ldo" => Ok(AnyRegulator::from(Ldo::paper_65nm())),
        other => Err(format!(
            "--regulator must be one of sc|buck|ldo, got '{other}'"
        )),
    }
}

fn cmd_iv(flags: &Flags) -> Result<(), String> {
    let cell = SolarCell::kxob22(light_from(flags)?);
    let curve = cell.iv_curve(25);
    println!("V (V)    I (mA)   P (mW)");
    for p in curve.points() {
        println!(
            "{:6.3}  {:7.3}  {:7.3}",
            p.voltage.volts(),
            p.current.to_milli(),
            p.power().to_milli()
        );
    }
    match cell.mpp() {
        Ok(mpp) => println!("\n{mpp}"),
        Err(_) => println!("\nno MPP (dark)"),
    }
    Ok(())
}

fn cmd_plan(flags: &Flags) -> Result<(), String> {
    let cell = SolarCell::kxob22(light_from(flags)?);
    let regulator = regulator_from(flags)?;
    let cpu = Microprocessor::paper_65nm();
    let baseline = optimal_voltage::unregulated_baseline(&cell, &cpu)
        .map_err(|e| format!("unregulated baseline: {e}"))?;
    println!(
        "unregulated : {:.3} V, {:7.1} MHz, {:6.2} mW",
        baseline.vdd.volts(),
        baseline.frequency.to_mega(),
        baseline.power.to_milli()
    );
    match optimal_voltage::optimal_regulated_plan(&cell, &regulator, &cpu) {
        Ok(plan) => {
            println!(
                "{:>11} : {:.3} V, {:7.1} MHz, {:6.2} mW into the core \
                 (clock fraction {:.2}, eta {:.1}%)",
                regulator.kind().to_string(),
                plan.vdd.volts(),
                plan.frequency.to_mega(),
                plan.p_cpu.to_milli(),
                plan.clock_fraction,
                plan.efficiency.percent()
            );
            println!(
                "vs unregulated: {:+.1}% power, {:+.1}% speed",
                (plan.power_gain_vs(&baseline) - 1.0) * 100.0,
                (plan.speedup_vs(&baseline) - 1.0) * 100.0
            );
        }
        Err(e) => println!("{:>11} : infeasible ({e})", regulator.kind().to_string()),
    }
    Ok(())
}

fn cmd_mep(flags: &Flags) -> Result<(), String> {
    let regulator = regulator_from(flags)?;
    let cpu = Microprocessor::paper_65nm();
    let v_in = Volts::new(1.1);
    let cmp = mep::compare_meps(&cpu, &regulator, v_in).map_err(|e| e.to_string())?;
    println!(
        "conventional MEP : {:.3} V ({:.1} pJ/cycle at the core)",
        cmp.conventional.vdd.volts(),
        cmp.conventional.energy_per_cycle.value() * 1e12
    );
    println!(
        "holistic MEP     : {:.3} V ({:.1} pJ/cycle at the source)",
        cmp.holistic.vdd.volts(),
        cmp.holistic.energy_per_cycle.value() * 1e12
    );
    println!(
        "shift {:+.0} mV, savings {:.1}% vs running the regulated system at the conventional point",
        cmp.voltage_shift().to_milli(),
        cmp.energy_savings() * 100.0
    );
    Ok(())
}

fn cmd_paper(flags: &Flags) -> Result<(), String> {
    if let Some(flag) = flags.keys().find(|name| *name != "out") {
        return Err(format!("paper takes only --out, got --{flag}"));
    }
    paper::print_series().map_err(|e| format!("paper series: {e}"))?;
    let rows = paper::claim_rows()?;
    paper::print_claims(&rows);
    if let Some(path) = flags.get("out") {
        std::fs::write(path, paper::render_claims(&rows))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("\nwrote {path}");
    }
    Ok(())
}

fn cmd_simulate(flags: &Flags) -> Result<(), String> {
    let mode = match flags.get("mode").map(String::as_str).unwrap_or("maxperf") {
        "maxperf" => Mode::MaxPerformance,
        "minenergy" => Mode::MinEnergy,
        other => return Err(format!("--mode must be maxperf|minenergy, got '{other}'")),
    };
    let duration: f64 = flags
        .get("duration")
        .map(String::as_str)
        .unwrap_or("0.5")
        .parse()
        .map_err(|_| "--duration expects seconds".to_string())?;
    if !(duration > 0.0 && duration <= 3600.0) {
        return Err("--duration must be in (0, 3600] seconds".into());
    }
    let config = SystemConfig::paper_sc_system().map_err(|e| e.to_string())?;
    let light = LightProfile::constant(light_from(flags)?);
    let mut sim = Simulation::new(config, light, Volts::new(1.0)).map_err(|e| e.to_string())?;
    if flags.contains_key("csv") {
        sim.enable_recorder(20);
    }
    let mut ctl = HolisticController::paper_default(mode);
    let summary = sim.run(&mut ctl, Seconds::new(duration));
    println!(
        "harvested    : {:10.1} uJ",
        summary.ledger.harvested.to_micro()
    );
    println!(
        "delivered    : {:10.1} uJ",
        summary.ledger.delivered_to_cpu.to_micro()
    );
    println!(
        "cycles       : {:10.2} M",
        summary.total_cycles.count() / 1e6
    );
    println!(
        "duty cycle   : {:10.1} %",
        summary.ledger.duty_cycle() * 100.0
    );
    println!("brownouts    : {:10}", summary.brownouts);
    println!("final node   : {:10.3} V", summary.final_v_solar.volts());
    if let Some(path) = flags.get("csv") {
        let recorder = sim.recorder().expect("recorder enabled");
        let file = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
        recorder
            .write_csv(std::io::BufWriter::new(file))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("trace        : {path} ({} samples)", recorder.len());
    }
    Ok(())
}

fn cmd_classify(flags: &Flags) -> Result<(), String> {
    use hems_repro::imgproc::{read_pgm, Frame, RecognitionPipeline, Shape};
    let pipeline = RecognitionPipeline::paper_default().map_err(|e| e.to_string())?;
    let frame = if let Some(path) = flags.get("pgm") {
        let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
        read_pgm(std::io::BufReader::new(file)).map_err(|e| e.to_string())?
    } else if let Some(shape) = flags.get("shape") {
        let shape = match shape.as_str() {
            "rectangle" => Shape::Rectangle,
            "cross" => Shape::Cross,
            "disc" => Shape::Disc,
            "stripes" => Shape::Stripes,
            other => {
                return Err(format!(
                    "--shape must be rectangle|cross|disc|stripes, got '{other}'"
                ))
            }
        };
        let seed = flags
            .get("seed")
            .map(|s| s.parse::<u64>().map_err(|_| "--seed expects an integer"))
            .transpose()?
            .unwrap_or(0);
        Frame::synthetic_shape(64, 64, shape, seed).map_err(|e| e.to_string())?
    } else {
        return Err("classify needs --pgm <path> or --shape <name>".into());
    };
    let result = pipeline
        .try_process(&frame)
        .map_err(|e| format!("pipeline rejected the frame: {e}"))?;
    let label_name = ["rectangle", "cross", "disc", "stripes"]
        .get(result.label)
        .copied()
        .unwrap_or("unknown");
    println!(
        "label {} ({label_name}), distance {:.3}, {:.2} Mcycles",
        result.label,
        result.distance,
        result.cycles.count() / 1e6
    );
    let cpu = Microprocessor::paper_65nm();
    let op = cpu
        .max_speed_point(Volts::new(0.5))
        .map_err(|e| e.to_string())?;
    println!(
        "at 0.5 V this frame takes {:.2} ms (the paper's ~15 ms operating point)",
        cpu.execution_time(result.cycles, op).to_milli()
    );
    Ok(())
}

fn usage() -> String {
    "usage: hems <command> [--flag value ...]\n\
     commands:\n\
     \x20 iv        --light <0..2>                     print the I-V / P-V table\n\
     \x20 plan      --light <0..2> --regulator sc|buck|ldo   eqs. 1-4 optimal plan\n\
     \x20 mep       --regulator sc|buck|ldo            conventional vs holistic MEP\n\
     \x20 paper     [--out <path>]                     figure series + claim rows (BENCH_paper.json)\n\
     \x20 simulate  --mode maxperf|minenergy --light <0..2> --duration <s> [--csv <path>]\n\
     \x20 classify  --pgm <file> | --shape rectangle|cross|disc|stripes [--seed n]"
        .to_string()
}

fn run(args: Vec<String>) -> Result<(), String> {
    let Some(command) = args.first() else {
        return Err(usage());
    };
    let flags = parse_flags(&args[1..])?;
    match command.as_str() {
        "iv" => cmd_iv(&flags),
        "plan" => cmd_plan(&flags),
        "mep" => cmd_mep(&flags),
        "paper" => cmd_paper(&flags),
        "simulate" => cmd_simulate(&flags),
        "classify" => cmd_classify(&flags),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{}", usage())),
    }
}

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_parsing() {
        let flags = parse_flags(&strs(&["--light", "0.5", "--regulator", "sc"])).unwrap();
        assert_eq!(flags["light"], "0.5");
        assert_eq!(flags["regulator"], "sc");
        assert!(parse_flags(&strs(&["light"])).is_err());
        assert!(parse_flags(&strs(&["--light"])).is_err());
    }

    #[test]
    fn light_and_regulator_parsing() {
        let flags = parse_flags(&strs(&["--light", "0.25"])).unwrap();
        assert_eq!(light_from(&flags).unwrap(), Irradiance::QUARTER_SUN);
        let flags = parse_flags(&strs(&["--light", "nope"])).unwrap();
        assert!(light_from(&flags).is_err());
        let flags = parse_flags(&strs(&["--regulator", "buck"])).unwrap();
        assert!(matches!(
            regulator_from(&flags).unwrap(),
            AnyRegulator::Buck(_)
        ));
        let flags = parse_flags(&strs(&["--regulator", "boost"])).unwrap();
        assert!(regulator_from(&flags).is_err());
    }

    #[test]
    fn commands_run_end_to_end() {
        assert!(run(strs(&["iv", "--light", "1.0"])).is_ok());
        assert!(run(strs(&["plan", "--light", "1.0", "--regulator", "sc"])).is_ok());
        assert!(run(strs(&["mep", "--regulator", "buck"])).is_ok());
        assert!(run(strs(&["simulate", "--duration", "0.05"])).is_ok());
        assert!(run(strs(&["classify", "--shape", "disc", "--seed", "3"])).is_ok());
        assert!(run(strs(&["classify"])).is_err());
        assert!(run(strs(&["classify", "--shape", "hexagon"])).is_err());
        assert!(run(strs(&["help"])).is_ok());
    }

    #[test]
    fn bad_commands_error() {
        assert!(run(vec![]).is_err());
        assert!(run(strs(&["frobnicate"])).is_err());
        assert!(run(strs(&["simulate", "--mode", "warp"])).is_err());
        assert!(run(strs(&["simulate", "--duration", "-1"])).is_err());
        // The full generator runs in verify.sh's release byte gate; here
        // only its argument check, which fails before any model work.
        assert!(run(strs(&["paper", "--output", "x.json"])).is_err());
    }
}
