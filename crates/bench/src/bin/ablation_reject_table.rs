//! Ablation — disable the Reject Table's false-negative recovery by shrinking
//! it to a single entry, isolating its contribution (paper Sec 3.1: the
//! Reject Table trains the filter out of wrongly-rejected candidates).

use ppf::{Ppf, PpfConfig};
use ppf_analysis::{geometric_mean, TextTable};
use ppf_bench::sweep::Sweep;
use ppf_bench::{run_cell, run_single, runner, sweep_scalars, RunScale, Scheme};
use ppf_prefetchers::Spp;
use ppf_sim::SystemConfig;
use ppf_trace::{Suite, Workload};

fn main() {
    let scale = RunScale::from_args();
    let workloads = Workload::memory_intensive(Suite::Spec2017);
    let sweep = Sweep::from_args("ablation_reject_table");
    let mut t = TextTable::new(vec!["configuration", "geomean speedup"]);
    let base_jobs: Vec<(String, runner::BoxedJob<f64>)> = workloads
        .iter()
        .map(|w| {
            let key = format!("baseline/{}", w.name());
            let w = w.clone();
            let job: runner::BoxedJob<f64> = Box::new(move || {
                let ipc =
                    run_single(SystemConfig::single_core(), &w, Scheme::Baseline, scale).ipc();
                eprintln!("  baseline {} done", w.name());
                ipc
            });
            (key, job)
        })
        .collect();
    let base = sweep_scalars(&sweep, base_jobs);
    for (label, entries) in [("1024-entry reject table (paper)", 1024usize), ("disabled (1 entry)", 1)] {
        let jobs: Vec<(String, runner::BoxedJob<f64>)> = workloads
            .iter()
            .zip(&base)
            .filter_map(|(w, b)| {
                let b = (*b)?;
                let tag = format!("reject{entries}");
                let key = format!("{tag}/{}", w.name());
                let w = w.clone();
                let job: runner::BoxedJob<f64> = Box::new(move || {
                    let cfg = PpfConfig {
                        reject_table_entries: entries.next_power_of_two(),
                        ..PpfConfig::default()
                    };
                    let pf = Box::new(Ppf::with_config(Spp::default(), cfg));
                    run_cell(SystemConfig::single_core(), &w, &tag, pf, scale).0.ipc() / b
                });
                Some((key, job))
            })
            .collect();
        let xs: Vec<f64> = sweep_scalars(&sweep, jobs).into_iter().flatten().collect();
        let g = geometric_mean(&xs);
        eprintln!("  {label}: {g:.3}");
        t.row(vec![label.to_string(), format!("{g:.3}")]);
    }
    println!("\nReject-table ablation — memory-intensive subset\n");
    print!("{}", t.render());
}
