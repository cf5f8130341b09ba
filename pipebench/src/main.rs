//! Pipeline benchmark for the Privelet stack.
//!
//! One process runs one workload, closed-loop, on inputs generated from
//! `--seed`, for `--seconds`, and checks the program's outputs on the
//! way. From the repository root:
//!
//! ```sh
//! cargo run --release --offline --manifest-path pipebench/Cargo.toml -- \
//!     --workload census_publish --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The
//! lines before it are the run's records. See `README.md`.

mod census;
mod decay;
mod grid;
mod report;
mod stats;
mod trace;

use report::Run;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: pipebench --workload <census_publish|decay_stream|grid_serve> \
                     [--seed <u64>] [--seconds <s>] [--trace <0|1>]";

fn parse_args(args: impl Iterator<Item = String>, start: Instant) -> Result<(String, Run), String> {
    let mut workload = None;
    let mut run = Run {
        seed: 1,
        seconds: 10.0,
        trace: false,
        start,
    };
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => run.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                run.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(run.seconds.is_finite() && run.seconds > 0.0) {
                    return Err(bad(&"must be a positive number"));
                }
            }
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, run))
}

fn main() -> ExitCode {
    let start = Instant::now();
    let (workload, run) = match parse_args(std::env::args().skip(1), start) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("pipebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match workload.as_str() {
        "census_publish" => census::run(&run, &census::Size::full()),
        "decay_stream" => decay::run(&run, &decay::Size::full()),
        "grid_serve" => grid::run(&run, &grid::Size::full()),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    match report.and_then(report::Report::finish) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pipebench: {e}");
            ExitCode::FAILURE
        }
    }
}
