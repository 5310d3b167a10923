//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct", "attempted", "failed", "metrics"}`. Lines before it are
//! the human-readable report.

use std::process::ExitCode;
use std::time::Duration;

use perfbench::common::Args;
use perfbench::report::result_line;
use perfbench::{live, mem, serve};

/// Workload names.
const WORKLOADS: [&str; 4] = ["paper-mem", "parallel-mem", "serve-file", "live-htap"];

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(Duration::from_secs(10)),
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={}",
        args.workload,
        args.seed,
        args.seconds.as_secs_f64(),
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let (outcome, metrics) = match args.workload.as_str() {
        "paper-mem" => mem::run(&args, mem::Exec::FastMatch),
        "parallel-mem" => mem::run(&args, mem::Exec::Parallel2),
        "serve-file" => serve::run(&args),
        _ => live::run(&args),
    };
    println!(
        "# failed/attempted: {}/{} ({})",
        outcome.failed, outcome.attempted, args.workload
    );
    for f in &outcome.check_failures {
        println!("# check failed: {f}");
    }
    println!("{}", result_line(&outcome, &metrics, args.trace));
    ExitCode::SUCCESS
}
