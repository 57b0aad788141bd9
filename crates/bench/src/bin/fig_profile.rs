//! Self-profiler driver: overhead A/B, coverage check and cost-center
//! tables (the profiling counterpart of `fig_telemetry`).
//!
//! `fig_profile [--quick] [--workload NAME]` runs one workload under PPF
//! twice with the profiler off and twice with it on (no `PPF_OBSERVE`
//! needed; the binary already requires the `observe` feature), keeps
//! the best wall time of each pair, and enforces the overhead budget:
//! profiled wall <= unprofiled wall * 1.05 + 0.3 s of slack for short runs.
//! Prints the flat and top-down cost-center tables, checks the spans cover
//! at least 90% of the root span's wall time, and exports the `span` records
//! under `PPF_OBSERVE_DIR` (default `results/observe`). Exits non-zero if
//! any check fails. `fig_telemetry --validate` re-checks the export.

use ppf_analysis::{observe::parse_document, profile};
use ppf_bench::{RunScale, Scheme};
use ppf_sim::{observe, ProfConfig, Simulation, SystemConfig};
use ppf_trace::{TraceBuilder, Workload};
use std::time::{Duration, Instant};

/// Profiled wall must stay within this fraction of the unprofiled wall...
const OVERHEAD_BUDGET: f64 = 0.05;
/// ...plus this much absolute slack, so `--quick` runs (sub-second) are not
/// judged on scheduler noise.
const OVERHEAD_SLACK: Duration = Duration::from_millis(300);

fn arg_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

/// One measured run; returns wall time and (when profiled) the export.
fn run_once(workload: &Workload, scale: RunScale, profiled: bool) -> (Duration, String) {
    let trace = Box::new(TraceBuilder::new(workload.clone()).seed(42).build());
    let mut sim = Simulation::new(SystemConfig::single_core());
    sim.add_core(workload.name(), trace, Scheme::Ppf.build());
    // Programmatic control, not PPF_OBSERVE: the A and B runs must differ
    // only in this switch, whatever the environment says.
    sim.set_profiling(if profiled { ProfConfig::enabled() } else { ProfConfig::disabled() });
    let t0 = Instant::now();
    sim.run(scale.warmup, scale.measure);
    (t0.elapsed(), sim.profile_jsonl())
}

fn main() {
    let scale = RunScale::from_args();
    let name = arg_value("--workload").unwrap_or_else(|| "605.mcf_s".to_string());
    let workload = Workload::by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown workload {name:?}");
        std::process::exit(2);
    });

    println!(
        "Self-profiler — {} under PPF ({} warmup / {} measured)\n",
        workload.name(),
        scale.warmup,
        scale.measure
    );

    // Best-of-two each way: the min filters out one-off scheduler stalls
    // without needing a long calibration phase.
    let mut failed = false;
    let off = (0..2).map(|_| run_once(&workload, scale, false).0).min().expect("two runs");
    let (on, jsonl) = {
        let (a_wall, a_jsonl) = run_once(&workload, scale, true);
        let (b_wall, b_jsonl) = run_once(&workload, scale, true);
        if a_wall <= b_wall { (a_wall, a_jsonl) } else { (b_wall, b_jsonl) }
    };
    let budget = off.mul_f64(1.0 + OVERHEAD_BUDGET) + OVERHEAD_SLACK;
    println!(
        "wall: unprofiled {:.3} s, profiled {:.3} s (budget {:.3} s)",
        off.as_secs_f64(),
        on.as_secs_f64(),
        budget.as_secs_f64()
    );
    if on > budget {
        eprintln!("FAIL: profiling overhead exceeds {:.0}% budget", OVERHEAD_BUDGET * 100.0);
        failed = true;
    }

    let records = match parse_document(&jsonl) {
        Ok(r) if !r.is_empty() => r,
        Ok(_) => {
            eprintln!("FAIL: profiled run exported no spans");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("FAIL: profile export does not validate: {e}");
            std::process::exit(1);
        }
    };
    println!();
    print!("{}", profile::render_flat(&records));
    println!();
    print!("{}", profile::render_topdown(&records));

    match profile::coverage(&records) {
        Some(c) if c >= 0.90 => println!("\nspan coverage: {:.1}% of run_loop wall", c * 100.0),
        Some(c) => {
            eprintln!("\nFAIL: span coverage {:.1}% < 90%", c * 100.0);
            failed = true;
        }
        None => {
            eprintln!("\nFAIL: no run_loop root span in export");
            failed = true;
        }
    }

    let dir = observe::export_dir();
    let path = dir.join(format!("profile__{}.jsonl", workload.name().replace('.', "_")));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &jsonl)) {
        eprintln!("FAIL: export: {e}");
        failed = true;
    } else {
        println!("exported {}", path.display());
    }

    if failed {
        std::process::exit(1);
    }
}
