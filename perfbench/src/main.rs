//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones of the named workload; with
//! `--trace 1` the traced run measures every layer of every workload,
//! writes its span file, and prints the per-layer metrics.

use std::process::ExitCode;

use dsa_perfbench::report::Outcome;
use dsa_perfbench::{heap, placement, survey, tenants, traced, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
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
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut out: Outcome = if args.trace {
        traced::run(&args.workload, args.seed, args.seconds)
    } else {
        match args.workload.as_str() {
            "heap_churn" => heap::run(args.seed, args.seconds),
            "placement_churn" => placement::run(args.seed, args.seconds),
            "tenant_population" => tenants::run(args.seed, args.seconds),
            _ => survey::run(args.seed, args.seconds),
        }
    };
    if out.attempted == 0 {
        out.check(Err("no operation was attempted".into()));
    }
    for line in &out.notes {
        println!("{line}");
    }
    for v in &out.violations {
        println!("VIOLATION: {v}");
    }
    println!("{}", out.json());
    ExitCode::SUCCESS
}
