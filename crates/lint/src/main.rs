//! The `hems-lint` gate binary. See the library docs and DESIGN.md §10.
//!
//! Exit codes: `0` clean (baselined findings included), `1` findings,
//! `2` usage or I/O failure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hems_lint::report::Baseline;
use hems_lint::workspace::{self, analyze_workspace, load_baseline, load_config};
use hems_obs::json::Value;
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    root: PathBuf,
    json: bool,
    use_baseline: bool,
    write_baseline: bool,
}

const USAGE: &str = "usage: hems-lint [--json] [--root DIR] [--no-baseline] [--write-baseline]";

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        root: default_root(),
        json: false,
        use_baseline: true,
        write_baseline: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => options.json = true,
            "--no-baseline" => options.use_baseline = false,
            "--write-baseline" => options.write_baseline = true,
            "--root" => match args.next() {
                Some(dir) => options.root = PathBuf::from(dir),
                None => return Err(format!("--root needs a directory\n{USAGE}")),
            },
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(options)
}

/// The workspace root: when run via `cargo run -p hems-lint`, two levels
/// above this crate's manifest; otherwise the current directory.
fn default_root() -> PathBuf {
    match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(dir) => PathBuf::from(dir).join("../.."),
        None => PathBuf::from("."),
    }
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let started_ns = hems_obs::clock::monotonic_ns();
    let cfg = load_config(&options.root);
    let analysis = match analyze_workspace(&options.root, &cfg) {
        Ok(analysis) => analysis,
        Err(e) => {
            eprintln!("hems-lint: cannot analyze {}: {e}", options.root.display());
            return ExitCode::from(2);
        }
    };
    let wall_ms = hems_obs::clock::monotonic_ns().saturating_sub(started_ns) / 1_000_000;

    if options.write_baseline {
        let text = Baseline::render(&analysis.findings);
        let path = options.root.join(workspace::BASELINE);
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("hems-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "hems-lint: wrote {} finding(s) to {}",
            analysis.findings.len(),
            path.display()
        );
        return ExitCode::SUCCESS;
    }

    let baseline = if options.use_baseline {
        load_baseline(&options.root)
    } else {
        Baseline::default()
    };
    let (fresh, baselined) = baseline.partition(analysis.findings);

    let passes = analysis.passes;
    if options.json {
        for finding in &fresh {
            println!("{}", finding.render_json());
        }
        let count = |n: usize| Value::Num(n as f64);
        let summary = Value::obj(vec![
            ("summary", Value::Bool(true)),
            ("files", count(analysis.files_scanned)),
            ("findings", count(fresh.len())),
            ("baselined", count(baselined.len())),
            ("wall_ms", Value::Num(wall_ms as f64)),
            ("functions", count(passes.functions)),
            ("edges", count(passes.edges)),
            ("lock_sites", count(passes.lock_sites)),
            (
                "passes",
                Value::obj(vec![
                    ("panic_reach", count(passes.panic_reach)),
                    ("lock_order", count(passes.lock_order)),
                    ("taint", count(passes.taint)),
                ]),
            ),
        ]);
        println!("{}", summary.render());
    } else {
        for finding in &fresh {
            println!("{}", finding.render_human());
        }
        println!(
            "hems-lint: {} file(s), {} finding(s), {} baselined \
             ({} fns, {} edges; panic_reach {}, lock_order {}, taint {}; {wall_ms} ms)",
            analysis.files_scanned,
            fresh.len(),
            baselined.len(),
            passes.functions,
            passes.edges,
            passes.panic_reach,
            passes.lock_order,
            passes.taint,
        );
    }
    if fresh.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
