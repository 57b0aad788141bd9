//! Ablation — drop each of the nine features in turn and measure the
//! geomean speedup on the memory-intensive subset (quantifies each
//! feature's contribution, complementing the paper's Sec 5.5 analysis).

use ppf::{FeatureKind, PpfConfig};
use ppf_analysis::{geometric_mean, TextTable};
use ppf_bench::sweep::Sweep;
use ppf_bench::{run_suite, RunScale, Scheme, Variant};
use ppf_sim::SystemConfig;
use ppf_trace::{Suite, Workload};

fn main() {
    let scale = RunScale::from_args();
    let workloads = Workload::memory_intensive(Suite::Spec2017);
    let full = FeatureKind::default_set();
    let with = |label: String, features: Vec<FeatureKind>| {
        Variant::ppf(label, PpfConfig { features, ..PpfConfig::default() })
    };
    let mut variants = vec![Scheme::Baseline.into(), with("all nine features".into(), full.clone())];
    for skip in &full {
        let subset: Vec<FeatureKind> = full.iter().copied().filter(|f| f != skip).collect();
        variants.push(with(format!("without {}", skip.label()), subset));
    }
    let sweep = Sweep::from_args("ablation_features");
    let rows = run_suite(&sweep, SystemConfig::single_core(), &workloads, &variants, scale).rows;

    let mut t = TextTable::new(vec!["configuration", "geomean speedup"]);
    for v in &variants[1..] {
        let xs: Vec<f64> = rows.iter().map(|r| r.speedup(v.label())).collect();
        t.row(vec![v.label().to_string(), format!("{:.3}", geometric_mean(&xs))]);
    }
    println!("\nFeature ablation — PPF geomean speedup, memory-intensive subset\n");
    print!("{}", t.render());
}
