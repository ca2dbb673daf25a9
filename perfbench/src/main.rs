//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload (or each in turn, for `all`), prints its metrics by
//! name and unit, and ends with one JSON result line per workload. Exits
//! non-zero if an argument is invalid or an output check fails.

use std::process::ExitCode;

use perfbench::{Opts, WORKLOADS};

fn parse() -> Result<(String, Opts), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |key: &str| -> Result<&str, String> {
        let i = args.iter().position(|a| a == key).ok_or(format!("missing {key}"))?;
        args.get(i + 1).map(String::as_str).ok_or(format!("{key} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?} or all"));
    }
    let seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    Ok((workload, Opts { seed, seconds, trace }))
}

fn main() -> ExitCode {
    let (workload, opts) = match parse() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workloads = if workload == "all" { WORKLOADS.to_vec() } else { vec![workload.as_str()] };
    let mut correct = true;
    for workload in workloads {
        println!(
            "workload {workload} seed {} seconds {} trace {} threads available {}",
            opts.seed,
            opts.seconds,
            opts.trace as u8,
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        );
        let report = perfbench::run(workload, &opts).expect("workload name was checked");
        correct &= report.finish(opts.trace);
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
