//! Paper-scale closed-loop benchmark of the SAC serving stack.
//!
//! ```text
//! sacbench --workload <query_mix|http_light|checkin_writes> --seed <n>
//!          --seconds <s> --trace <0|1> [--server-bin <path>] [--out <dir>]
//! ```
//!
//! Prints notes prefixed with `#`, then one JSON result line.  See README.md
//! for the workloads, the metrics and how the traced run attributes time to
//! layers.

mod checkin_writes;
mod common;
mod http_light;
mod query_mix;
mod runner;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// The `sac-http` binary (`http_light` only).
    pub server_bin: Option<PathBuf>,
    /// Scratch directory for SNAP files, WAL directories and span dumps.
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut server_bin = None;
    let mut out = PathBuf::from(".bench_out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed must be an integer")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds must be a number")?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            "--server-bin" => server_bin = Some(PathBuf::from(value()?)),
            "--out" => out = PathBuf::from(value()?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        server_bin,
        out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("sacbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "query_mix" => query_mix::run(&args),
        "http_light" => http_light::run(&args),
        "checkin_writes" => checkin_writes::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    match outcome {
        Ok(outcome) => {
            outcome.print();
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("sacbench: {e}");
            ExitCode::FAILURE
        }
    }
}
