//! Ablation — scale the perceptron weight tables and metadata tables up and
//! down (the paper's Sec 5.6 claim: the perceptron block can be scaled to
//! fit the budget).

use ppf::{FeatureKind, Ppf, PpfConfig, StorageBudget};
use ppf_analysis::{geometric_mean, TextTable};
use ppf_bench::sweep::Sweep;
use ppf_bench::{run_cell, run_single, runner, sweep_scalars, RunScale, Scheme};
use ppf_prefetchers::{Spp, SppConfig};
use ppf_sim::SystemConfig;
use ppf_trace::{Suite, Workload};

fn main() {
    let scale = RunScale::from_args();
    let workloads = Workload::memory_intensive(Suite::Spec2017);
    let sweep = Sweep::from_args("ablation_tables");
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

    println!("Table-size ablation — PPF geomean speedup vs. storage\n");
    let mut t = TextTable::new(vec!["metadata tables", "features", "storage (KB)", "geomean"]);
    let feature_sets: [(&str, Vec<FeatureKind>); 2] = [
        ("nine (paper)", FeatureKind::default_set()),
        (
            "top-4 only",
            vec![
                FeatureKind::PhysAddr,
                FeatureKind::CacheLine,
                FeatureKind::PageAddr,
                FeatureKind::ConfidenceXorPage,
            ],
        ),
    ];
    for (fs_label, features) in feature_sets {
        for table_entries in [256usize, 1024, 4096] {
            let cfg = PpfConfig {
                prefetch_table_entries: table_entries,
                reject_table_entries: table_entries,
                features: features.clone(),
                ..PpfConfig::default()
            };
            let kb = StorageBudget::compute(&SppConfig::default(), &cfg).total_kb();
            // Workloads whose baseline run failed are skipped (no ratio
            // to compute); the sweep summary already named the failure.
            let jobs: Vec<(String, runner::BoxedJob<f64>)> = workloads
                .iter()
                .zip(&base)
                .filter_map(|(w, b)| {
                    let b = (*b)?;
                    let tag = format!("{fs_label}/{table_entries}");
                    let key = format!("{tag}/{}", w.name());
                    let w = w.clone();
                    let cfg = cfg.clone();
                    let job: runner::BoxedJob<f64> = Box::new(move || {
                        let pf = Box::new(Ppf::with_config(Spp::default(), cfg));
                        run_cell(SystemConfig::single_core(), &w, &tag, pf, scale).0.ipc() / b
                    });
                    Some((key, job))
                })
                .collect();
            let xs: Vec<f64> = sweep_scalars(&sweep, jobs).into_iter().flatten().collect();
            let g = geometric_mean(&xs);
            eprintln!("  {fs_label}/{table_entries}: {g:.3}");
            t.row(vec![
                table_entries.to_string(),
                fs_label.to_string(),
                format!("{kb:.1}"),
                format!("{g:.3}"),
            ]);
        }
    }
    print!("{}", t.render());
}
