//! Related-work comparison (paper Sec 7.4): the basic Rosenblatt perceptron
//! filter of Wang & Luo versus PPF. The paper's claim, reproduced here:
//! the Rosenblatt design raises accuracy over the plain baseline but loses
//! coverage, so its performance impact is small — PPF gets both.

use ppf::RosenblattFilter;
use ppf_analysis::{geometric_mean, mean, TextTable};
use ppf_bench::sweep::Sweep;
use ppf_bench::{coverage, run_suite, RunScale, Scheme, Variant};
use ppf_prefetchers::Spp;
use ppf_sim::SystemConfig;
use ppf_trace::{Suite, Workload};

fn main() {
    let scale = RunScale::from_args();
    let workloads = Workload::memory_intensive(Suite::Spec2017);
    let variants = [
        Scheme::Baseline.into(),
        Scheme::Spp.into(),
        Variant::new("SPP+Rosenblatt", || Box::new(RosenblattFilter::new(Spp::default()))),
        Scheme::Ppf.into(),
    ];
    let sweep = Sweep::from_args("related_rosenblatt");
    let rows = run_suite(&sweep, SystemConfig::single_core(), &workloads, &variants, scale).rows;

    println!("Related work — Rosenblatt filter vs PPF (memory-intensive subset)\n");
    let mut t = TextTable::new(vec!["scheme", "geomean speedup", "mean accuracy", "mean L2 coverage"]);
    for v in &variants[1..] {
        let speedups: Vec<f64> = rows.iter().map(|r| r.speedup(v.label())).collect();
        let mut accuracies = Vec::new();
        let mut coverages = Vec::new();
        for row in &rows {
            let (base, r) = (&row.reports[0].1.cores[0], &row.report(v.label()).cores[0]);
            if r.prefetch.issued > 100 {
                accuracies.push(r.prefetch.accuracy());
            }
            if base.l2.demand_misses() > 500 {
                coverages.push(coverage(base.l2.demand_misses(), r.l2.demand_misses()));
            }
        }
        t.row(vec![
            v.label().to_string(),
            format!("{:.3}", geometric_mean(&speedups)),
            format!("{:.1}%", 100.0 * mean(&accuracies)),
            format!("{:.1}%", 100.0 * mean(&coverages)),
        ]);
    }
    print!("{}", t.render());
    println!("\n(paper Sec 7.4: the basic-perceptron design increases accuracy but");
    println!(" lowers coverage, hence low performance impact; PPF raises both)");
}
