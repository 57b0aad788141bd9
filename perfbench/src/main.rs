//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <fig09-1c|mix4-ppf|serve-sock> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload calls the public APIs of `ppf-trace`, `ppf-sim`,
//! `ppf-prefetchers`, `ppf` and `ppf-serve`, checks the outputs, and
//! prints a human-readable table followed by one JSON line (the last line
//! of stdout). `--trace 0` measures the end-to-end metrics untraced;
//! `--trace 1` runs the same work untraced and then traced, checks that
//! both produce the same digests, and reports the per-layer metrics. The
//! layer timers live in this package only: they wrap the trait objects
//! and calls the crates already expose.
//!
//! `perfbench/run.py` builds this package in release mode and runs it.

mod report;
mod serve;
mod sim;

use report::Outcome;
use std::time::Duration;

/// The seed a run uses when `--seed` is absent; the recorded digests hold
/// for this seed.
const DEFAULT_SEED: u64 = 42;

/// Switches that silently change the code path under measurement.
const FORBIDDEN_ENV: [&str; 9] = [
    "PPF_NO_SKIP",
    "PPF_NO_SIMD",
    "PPF_FORCE_SIMD",
    "PPF_BATCH_WINDOW",
    "PPF_WRAP_HYBRID",
    "PPF_CHECK_INVARIANTS",
    "PPF_FAULT_INJECT",
    "PPF_TELEMETRY",
    "PPF_PROFILE",
];

const WORKLOADS: [&str; 3] = ["fig09-1c", "mix4-ppf", "serve-sock"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad value {value:?} for {flag}"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = parse(&flag, &value)?,
            "--seconds" => args.seconds = parse(&flag, &value)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; one of {}",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!(
            "--seconds must be in (0, 600], got {}",
            args.seconds
        ));
    }
    Ok(args)
}

fn refuse_unpinned_build() -> Result<(), String> {
    if cfg!(debug_assertions) {
        // Debug builds run the invariant checker, which also clamps
        // horizon jumps: a different code path from the one users run.
        return Err("refusing a build with debug assertions; build with --release".into());
    }
    let set: Vec<&str> = FORBIDDEN_ENV
        .iter()
        .copied()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !set.is_empty() {
        return Err(format!(
            "refusing to run with {} set: it changes the measured code path",
            set.join(", ")
        ));
    }
    Ok(())
}

fn main() {
    let args = match parse_args().and_then(|a| refuse_unpinned_build().map(|()| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!("host {}", report::host_record());
    let budget = Duration::from_secs_f64(args.seconds);
    let outcome: Result<Outcome, String> = match args.workload.as_str() {
        "fig09-1c" => Ok(sim::run(
            sim::Workload::Fig09,
            args.seed,
            budget,
            args.trace,
        )),
        "mix4-ppf" => Ok(sim::run(sim::Workload::Mix4, args.seed, budget, args.trace)),
        "serve-sock" => serve::run(args.seed, budget, args.trace),
        other => unreachable!("parse_args accepts only known workloads, not {other:?}"),
    };
    match outcome {
        Ok(outcome) => report::print(&args.workload, &outcome, args.trace),
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    }
}
