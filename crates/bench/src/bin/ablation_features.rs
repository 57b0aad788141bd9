//! Ablation — drop each of the nine features in turn and measure the
//! geomean speedup on the memory-intensive subset (quantifies each
//! feature's contribution, complementing the paper's Sec 5.5 analysis).

use ppf::{FeatureKind, Ppf, PpfConfig};
use ppf_analysis::{geometric_mean, TextTable};
use ppf_bench::sweep::Sweep;
use ppf_bench::{run_cell, run_single, runner, sweep_scalars, RunScale, Scheme};
use ppf_prefetchers::Spp;
use ppf_sim::SystemConfig;
use ppf_trace::{Suite, Workload};

fn run_with_features(
    w: &Workload,
    label: &str,
    features: Vec<FeatureKind>,
    scale: RunScale,
) -> f64 {
    let cfg = PpfConfig { features, ..PpfConfig::default() };
    let pf = Box::new(Ppf::with_config(Spp::default(), cfg));
    run_cell(SystemConfig::single_core(), w, label, pf, scale).0.ipc()
}

fn main() {
    let scale = RunScale::from_args();
    let workloads = Workload::memory_intensive(Suite::Spec2017);
    let full = FeatureKind::default_set();
    let sweep = Sweep::from_args("ablation_features");

    // Baselines per workload.
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

    let mut t = TextTable::new(vec!["configuration", "geomean speedup"]);
    let eval = |label: String, features: Vec<FeatureKind>, t: &mut TextTable| {
        let jobs: Vec<(String, runner::BoxedJob<f64>)> = workloads
            .iter()
            .zip(&base)
            .filter_map(|(w, b)| {
                let b = (*b)?;
                let key = format!("{label}/{}", w.name());
                let w = w.clone();
                let features = features.clone();
                let label = label.clone();
                let job: runner::BoxedJob<f64> =
                    Box::new(move || run_with_features(&w, &label, features, scale) / b);
                Some((key, job))
            })
            .collect();
        let xs: Vec<f64> = sweep_scalars(&sweep, jobs).into_iter().flatten().collect();
        let g = geometric_mean(&xs);
        eprintln!("  {label}: {g:.3}");
        t.row(vec![label, format!("{g:.3}")]);
    };

    eval("all nine features".to_string(), full.clone(), &mut t);
    for skip in &full {
        let subset: Vec<FeatureKind> = full.iter().copied().filter(|f| f != skip).collect();
        eval(format!("without {}", skip.label()), subset, &mut t);
    }
    println!("\nFeature ablation — PPF geomean speedup, memory-intensive subset\n");
    print!("{}", t.render());
}
