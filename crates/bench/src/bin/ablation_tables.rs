//! Ablation — scale PPF's Prefetch and Reject Tables (256, 1024 and 4096
//! entries each) under the paper's nine features and under the top four
//! only, reporting each configuration's storage and geomean speedup (the
//! paper's Sec 5.6 claim: the filter can be scaled to fit the budget).

use ppf::{FeatureKind, PpfConfig, StorageBudget};
use ppf_analysis::{geometric_mean, TextTable};
use ppf_bench::sweep::Sweep;
use ppf_bench::{run_suite, RunScale, Scheme, Variant};
use ppf_prefetchers::SppConfig;
use ppf_sim::SystemConfig;
use ppf_trace::{Suite, Workload};

fn main() {
    let scale = RunScale::from_args();
    let workloads = Workload::memory_intensive(Suite::Spec2017);
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
    let mut configs = Vec::new();
    let mut variants = vec![Scheme::Baseline.into()];
    for (fs_label, features) in &feature_sets {
        for table_entries in [256usize, 1024, 4096] {
            let cfg = PpfConfig {
                prefetch_table_entries: table_entries,
                reject_table_entries: table_entries,
                features: features.clone(),
                ..PpfConfig::default()
            };
            let kb = StorageBudget::compute(&SppConfig::default(), &cfg).total_kb();
            configs.push((table_entries, fs_label, kb));
            variants.push(Variant::ppf(format!("{fs_label}/{table_entries}"), cfg));
        }
    }
    let sweep = Sweep::from_args("ablation_tables");
    let rows = run_suite(&sweep, SystemConfig::single_core(), &workloads, &variants, scale).rows;

    println!("Table-size ablation — PPF geomean speedup vs. storage\n");
    let mut t = TextTable::new(vec!["metadata tables", "features", "storage (KB)", "geomean"]);
    for ((table_entries, fs_label, kb), v) in configs.into_iter().zip(&variants[1..]) {
        let xs: Vec<f64> = rows.iter().map(|r| r.speedup(v.label())).collect();
        t.row(vec![
            table_entries.to_string(),
            fs_label.to_string(),
            format!("{kb:.1}"),
            format!("{:.3}", geometric_mean(&xs)),
        ]);
    }
    print!("{}", t.render());
}
