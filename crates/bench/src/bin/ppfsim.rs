//! `ppfsim` — the user-facing simulator driver.
//!
//! ```text
//! cargo run --release -p ppf-bench --bin ppfsim -- \
//!     --workload 603.bwaves_s --prefetcher ppf --config default \
//!     --warmup 200000 --measure 1000000
//! ```
//!
//! Options:
//!
//! * `--workload NAME[,NAME...]` — one per core (default `603.bwaves_s`);
//!   `--list` prints every available model.
//! * `--trace FILE` — replay a `PPFT` trace file instead of a model
//!   (single-core only).
//! * `--prefetcher none|nextline|stride|bop|ampm|vldp|spp|ppf|ppf-vldp|rosenblatt`
//! * `--config default|lowbw|smallllc`
//! * `--warmup N`, `--measure N`, `--seed N`
//! * `--record FILE --records N` — dump the workload to a trace file and
//!   exit instead of simulating. A `.csv` extension selects the text format
//!   (`pc,addr,kind,work,dependent`); anything else writes binary `PPFT`.

use ppf::{Ppf, RosenblattFilter};
use ppf_prefetchers::{Bop, DaAmpm, NextLine, Spp, StridePrefetcher, Vldp};
use ppf_sim::{NoPrefetcher, Prefetcher, Simulation, SystemConfig};
use ppf_trace::{load_trace_csv, record_trace, record_trace_csv, AccessPattern, TraceBuilder, TraceFile, Workload};
use std::process::ExitCode;

const USAGE: &str = "\
ppfsim — trace-driven cache/prefetch simulator (PPF, ISCA 2019 reproduction)

USAGE:
    ppfsim [OPTIONS]

OPTIONS:
    --workload NAME[,NAME...]   workload model per core   [default: 603.bwaves_s]
                                (N comma-separated names build an N-core system)
    --trace FILE                replay a recorded trace instead of a model
                                (single-core only; .csv = text, else binary PPFT)
    --prefetcher NAME           none|nextline|stride|bop|ampm|vldp|spp|ppf|
                                ppf-vldp|rosenblatt           [default: ppf]
    --config NAME               default|lowbw|smallllc        [default: default]
    --warmup N                  warmup instructions per core  [default: 200000]
    --measure N                 measured instructions per core [default: 1000000]
    --seed N                    trace-generation seed         [default: 42]
    --record FILE               dump the workload to a trace file and exit
                                (.csv writes `pc,addr,kind,work,dependent` text)
    --records N                 records to dump with --record [default: 1000000]
    --profile                   print flat + top-down cost-center tables after
                                the run (needs --features observe; stride
                                from PPF_OBSERVE=spans=N, default 64)
    --list                      print every available workload model and exit
    -h, --help                  print this help and exit

EXAMPLES:
    ppfsim --workload 605.mcf_s --prefetcher spp
    ppfsim --workload 619.lbm_s,605.mcf_s,621.wrf_s,654.roms_s --prefetcher ppf
    ppfsim --workload 603.bwaves_s --record bwaves.ppft --records 500000
    ppfsim --trace bwaves.ppft --prefetcher ppf

The figure/ablation binaries (fig09_single_core, ...) accept --quick for a
smoke-test scale and --threads N (or PPF_THREADS=N) to set sweep parallelism.
";

#[derive(Debug)]
struct Args {
    workloads: Vec<String>,
    trace: Option<String>,
    prefetcher: String,
    config: String,
    warmup: u64,
    measure: u64,
    seed: u64,
    record: Option<String>,
    records: u64,
    list: bool,
    profile: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: vec!["603.bwaves_s".to_string()],
        trace: None,
        prefetcher: "ppf".to_string(),
        config: "default".to_string(),
        warmup: 200_000,
        measure: 1_000_000,
        seed: 42,
        record: None,
        records: 1_000_000,
        list: false,
        profile: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                args.workloads =
                    value("--workload")?.split(',').map(str::to_string).collect();
            }
            "--trace" => args.trace = Some(value("--trace")?),
            "--prefetcher" => args.prefetcher = value("--prefetcher")?,
            "--config" => args.config = value("--config")?,
            "--warmup" => {
                args.warmup =
                    value("--warmup")?.parse().map_err(|e| format!("--warmup: {e}"))?;
            }
            "--measure" => {
                args.measure =
                    value("--measure")?.parse().map_err(|e| format!("--measure: {e}"))?;
            }
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--record" => args.record = Some(value("--record")?),
            "--records" => {
                args.records =
                    value("--records")?.parse().map_err(|e| format!("--records: {e}"))?;
            }
            "--list" => args.list = true,
            "--profile" => args.profile = true,
            "--help" | "-h" => {
                print!("{}", USAGE);
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn build_prefetcher(name: &str) -> Result<Box<dyn Prefetcher>, String> {
    Ok(match name {
        "none" => Box::new(NoPrefetcher),
        "nextline" => Box::new(NextLine::default()),
        "stride" => Box::new(StridePrefetcher::default()),
        "bop" => Box::new(Bop::default()),
        "ampm" => Box::new(DaAmpm::default()),
        "spp" => Box::new(Spp::default()),
        "vldp" => Box::new(Vldp::default()),
        "ppf" => Box::new(Ppf::new(Spp::default())),
        "ppf-vldp" => Box::new(Ppf::new(Vldp::default())),
        "rosenblatt" => Box::new(RosenblattFilter::new(Spp::default())),
        other => return Err(format!("unknown prefetcher {other}")),
    })
}

fn build_config(name: &str, cores: usize) -> Result<SystemConfig, String> {
    let mut cfg = match name {
        "default" => SystemConfig::multi_core(cores),
        "lowbw" => {
            if cores != 1 {
                return Err("lowbw config is single-core".into());
            }
            SystemConfig::low_bandwidth()
        }
        "smallllc" => {
            if cores != 1 {
                return Err("smallllc config is single-core".into());
            }
            SystemConfig::small_llc()
        }
        other => return Err(format!("unknown config {other}")),
    };
    cfg.cores = cores;
    Ok(cfg)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    if args.list {
        println!("available workload models:");
        for w in Workload::spec2017()
            .into_iter()
            .chain(ppf_trace::spec2006())
            .chain(ppf_trace::cloudsuite())
        {
            println!(
                "  {:<22} ({:?}{})",
                w.name(),
                w.suite(),
                if w.is_memory_intensive() { ", memory-intensive" } else { "" }
            );
        }
        return Ok(());
    }

    // Record mode: dump a trace and exit.
    if let Some(path) = &args.record {
        let name = &args.workloads[0];
        let w = Workload::by_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
        let mut gen = TraceBuilder::new(w).seed(args.seed).build();
        let p = std::path::Path::new(path);
        if path.ends_with(".csv") {
            record_trace_csv(p, &mut gen, args.records)
        } else {
            record_trace(p, &mut gen, args.records)
        }
        .map_err(|e| format!("recording failed: {e}"))?;
        println!("wrote {} records of {name} to {path}", args.records);
        return Ok(());
    }

    let cores = if args.trace.is_some() { 1 } else { args.workloads.len() };
    let cfg = build_config(&args.config, cores)?;
    println!("{}", cfg.table1());

    let mut sim = Simulation::new(cfg);
    if let Some(path) = &args.trace {
        let p = std::path::Path::new(path);
        let trace = if path.ends_with(".csv") {
            load_trace_csv(p)
        } else {
            TraceFile::open(p)
        }
        .map_err(|e| format!("opening trace: {e}"))?;
        println!("replaying {} records from {path}\n", trace.len());
        sim.add_core(
            path.clone(),
            Box::new(trace),
            build_prefetcher(&args.prefetcher)?,
        );
    } else {
        for (i, name) in args.workloads.iter().enumerate() {
            let w =
                Workload::by_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
            let trace: Box<dyn AccessPattern> =
                Box::new(TraceBuilder::new(w).seed(args.seed + i as u64).build());
            sim.add_core(
                name.clone(),
                trace,
                build_prefetcher(&args.prefetcher)?,
            );
        }
    }

    if args.profile {
        if !cfg!(feature = "observe") {
            return Err(
                "--profile needs the observe feature; recompile with \
                 `cargo run --release -p ppf-bench --features observe --bin ppfsim`"
                    .into(),
            );
        }
        // Honour an explicit PPF_OBSERVE=spans=N stride, default to the standard
        // sampling stride otherwise (the flag itself is the opt-in).
        let env = ppf_sim::ProfConfig::from_env();
        sim.set_profiling(if env.stride != 0 { env } else { ppf_sim::ProfConfig::enabled() });
    }

    let t0 = std::time::Instant::now();
    let report = sim.run(args.warmup, args.measure);
    let wall = t0.elapsed();

    if args.profile {
        let records = ppf_analysis::observe::parse_document(&sim.profile_jsonl())
            .map_err(|e| format!("profile export does not validate: {e}"))?;
        println!();
        print!("{}", ppf_analysis::profile::render_flat(&records));
        println!();
        print!("{}", ppf_analysis::profile::render_topdown(&records));
        if let Some(c) = ppf_analysis::profile::coverage(&records) {
            println!("\nspan coverage: {:.1}% of run_loop wall", c * 100.0);
        }
        println!();
    }

    println!("prefetcher: {}\n", args.prefetcher);
    for (i, c) in report.cores.iter().enumerate() {
        println!(
            "core {i} [{}]: ipc {:.3} | L1D MPKI {:.2} | L2 MPKI {:.2} | pf issued {} useful {} ({:.0}% accurate) | avg miss wait {:.0} cyc",
            c.workload,
            c.ipc(),
            c.l1d.demand_misses() as f64 * 1000.0 / c.instructions as f64,
            c.l2_mpki(),
            c.prefetch.issued,
            c.prefetch.useful_total(),
            100.0 * c.prefetch.accuracy(),
            c.avg_load_miss_wait(),
        );
    }
    println!(
        "LLC: {} accesses, {} misses | DRAM: {} reads, {} writes, row-hit {:.0}%",
        report.llc.demand_accesses,
        report.llc.demand_misses(),
        report.dram.reads,
        report.dram.writes,
        100.0 * report.dram.row_hit_rate(),
    );
    println!(
        "simulated {} instr/core in {:.1}s ({:.1} M instr/s)",
        args.measure,
        wall.as_secs_f64(),
        args.measure as f64 * report.cores.len() as f64 / wall.as_secs_f64() / 1e6,
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ppfsim: {e}");
            ExitCode::FAILURE
        }
    }
}
