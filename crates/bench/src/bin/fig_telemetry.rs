//! Interval-telemetry driver: phase tables, introspection dumps, and the
//! one JSONL validator (the observability counterpart of the fig* binaries).
//!
//! Two modes:
//!
//! * `fig_telemetry [--quick] [--workload NAME] [--interval N]` — runs one
//!   workload under SPP and PPF with telemetry forced on (no `PPF_OBSERVE`
//!   needed; the binary already requires the `observe` feature), prints
//!   the per-interval phase table and PPF's introspection dump, exports the
//!   snapshots as JSONL/CSV, re-parses the JSONL through the schema
//!   validator, and cross-checks the final snapshot against the end-of-run
//!   report. Exits non-zero if any check fails.
//! * `fig_telemetry --validate FILE...` — parses and validates existing
//!   exports of any kind (`interval`, `span`, `flight`, `serve`, `drill`;
//!   used by `scripts/verify.sh --observe`).

use ppf::Ppf;
use ppf_analysis::observe::parse_document;
use ppf_bench::{telemetry, RunScale, Scheme, Shared};
use ppf_prefetchers::Spp;
use ppf_sim::{observe, IntervalSnapshot, SimReport, Simulation, SystemConfig, TelemetryConfig};
use ppf_trace::{TraceBuilder, Workload};

fn arg_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

fn validate_files(files: &[String]) -> ! {
    let mut failed = false;
    for f in files {
        match std::fs::read_to_string(f).map_err(|e| e.to_string()).and_then(|text| {
            let records = parse_document(&text)?;
            if records.is_empty() {
                return Err("no records".to_string());
            }
            Ok(records.len())
        }) {
            Ok(n) => println!("OK {f}: {n} valid record(s)"),
            Err(e) => {
                eprintln!("FAIL {f}: {e}");
                failed = true;
            }
        }
    }
    std::process::exit(if failed { 1 } else { 0 });
}

/// The final snapshot is cumulative over the whole measurement region, so
/// it must agree exactly with the end-of-run report.
fn check_final_matches_report(report: &SimReport, snaps: &[IntervalSnapshot]) -> Result<(), String> {
    let last = snaps
        .iter()
        .rfind(|s| s.core == 0)
        .ok_or_else(|| "no snapshots recorded".to_string())?;
    let core = &report.cores[0];
    let check = |what: &str, snap: u64, rep: u64| {
        if snap == rep {
            Ok(())
        } else {
            Err(format!("final snapshot {what} = {snap}, report says {rep}"))
        }
    };
    check("instructions", last.instructions, core.instructions)?;
    check("cycles", last.cycles, core.cycles)?;
    check("l2 accesses", last.l2.demand_accesses, core.l2.demand_accesses)?;
    check("l2 hits", last.l2.demand_hits, core.l2.demand_hits)?;
    check("prefetches issued", last.prefetch.issued, core.prefetch.issued)?;
    check("useful prefetches", last.prefetch.useful, core.prefetch.useful)?;
    check("late prefetches", last.prefetch.late, core.prefetch.late)?;
    Ok(())
}

fn run_one(
    workload: &Workload,
    scheme: Scheme,
    scale: RunScale,
    interval: u64,
) -> (SimReport, Vec<IntervalSnapshot>, String) {
    let trace = Box::new(TraceBuilder::new(workload.clone()).seed(42).build());
    let mut sim = Simulation::new(SystemConfig::single_core());
    match scheme {
        Scheme::Ppf => {
            // Force the filter's decision introspection on, independent of
            // PPF_OBSERVE (the simulator side is forced on below).
            let mut ppf = Ppf::new(Spp::default());
            ppf.filter_mut().set_telemetry_enabled(true);
            let (wrapper, _handle) = Shared::new(ppf);
            sim.add_core(workload.name(), trace, Box::new(wrapper));
        }
        s => {
            sim.add_core(workload.name(), trace, s.build());
        }
    }
    sim.set_telemetry(TelemetryConfig { interval });
    let report = sim.run(scale.warmup, scale.measure);
    let snaps = sim.all_interval_snapshots();
    let dump = sim.prefetcher_dump(0);
    (report, snaps, dump)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--validate") {
        let files: Vec<String> = args[i + 1..].iter().filter(|a| !a.starts_with("--")).cloned().collect();
        if files.is_empty() {
            eprintln!("usage: fig_telemetry --validate FILE...");
            std::process::exit(2);
        }
        validate_files(&files);
    }

    let scale = RunScale::from_args();
    let name = arg_value("--workload").unwrap_or_else(|| "605.mcf_s".to_string());
    let workload = Workload::by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown workload {name:?}");
        std::process::exit(2);
    });
    let interval: u64 = arg_value("--interval")
        .map(|v| v.parse().expect("--interval takes an integer"))
        .unwrap_or(scale.measure / 20);

    println!(
        "Interval telemetry — {} ({} warmup / {} measured, interval {})\n",
        workload.name(),
        scale.warmup,
        scale.measure,
        interval
    );

    let mut failed = false;
    for scheme in [Scheme::Spp, Scheme::Ppf] {
        let (report, snaps, dump) = run_one(&workload, scheme, scale, interval);
        println!("== {} ==", scheme.label());
        println!("{} snapshots, final ipc {:.3}", snaps.len(), report.ipc());

        // Phase table: export, re-parse through the validator, difference.
        let (jsonl_path, csv_path) = match telemetry::write_snapshots(
            &observe::export_dir(),
            &format!("{}__{}", workload.name(), scheme.label()),
            &snaps,
        ) {
            Ok(paths) => paths,
            Err(e) => {
                eprintln!("FAIL: export: {e}");
                failed = true;
                continue;
            }
        };
        let text = std::fs::read_to_string(&jsonl_path).expect("just wrote it");
        match parse_document(&text) {
            Ok(records) => {
                print!("{}", ppf_analysis::render_intervals(&records));
                println!("exported {} and {}", jsonl_path.display(), csv_path.display());
            }
            Err(e) => {
                eprintln!("FAIL: exported JSONL does not validate: {e}");
                failed = true;
            }
        }

        if let Err(e) = check_final_matches_report(&report, &snaps) {
            eprintln!("FAIL: {e}");
            failed = true;
        } else {
            println!("final snapshot matches end-of-run report exactly");
        }

        if !dump.is_empty() {
            println!("\n{dump}");
        }
        println!();
    }

    if failed {
        std::process::exit(1);
    }
}
