//! Related-work comparison (paper Sec 7.4): the basic Rosenblatt perceptron
//! filter of Wang & Luo versus PPF. The paper's claim, reproduced here:
//! the Rosenblatt design raises accuracy over the plain baseline but loses
//! coverage, so its performance impact is small — PPF gets both.

use ppf::{Ppf, RosenblattFilter};
use ppf_analysis::{geometric_mean, mean, TextTable};
use ppf_bench::{coverage, run_cell, run_single, RunScale, Scheme};
use ppf_prefetchers::Spp;
use ppf_sim::{Prefetcher, SystemConfig};
use ppf_trace::{Suite, Workload};

fn main() {
    let scale = RunScale::from_args();
    let workloads = Workload::memory_intensive(Suite::Spec2017);

    let mut speedups: Vec<(&str, Vec<f64>)> =
        vec![("SPP", vec![]), ("SPP+Rosenblatt", vec![]), ("PPF", vec![])];
    let mut accuracies: Vec<(&str, Vec<f64>)> =
        vec![("SPP", vec![]), ("SPP+Rosenblatt", vec![]), ("PPF", vec![])];
    let mut coverages: Vec<(&str, Vec<f64>)> =
        vec![("SPP", vec![]), ("SPP+Rosenblatt", vec![]), ("PPF", vec![])];

    for w in &workloads {
        let base = run_single(SystemConfig::single_core(), w, Scheme::Baseline, scale);
        let runs: Vec<(usize, Box<dyn Prefetcher>)> = vec![
            (0, Box::new(Spp::default())),
            (1, Box::new(RosenblattFilter::new(Spp::default()))),
            (2, Box::new(Ppf::new(Spp::default()))),
        ];
        for (i, pf) in runs {
            let (r, _) = run_cell(SystemConfig::single_core(), w, speedups[i].0, pf, scale);
            speedups[i].1.push(r.ipc() / base.ipc());
            if r.cores[0].prefetch.issued > 100 {
                accuracies[i].1.push(r.cores[0].prefetch.accuracy());
            }
            if base.cores[0].l2.demand_misses() > 500 {
                coverages[i].1.push(coverage(
                    base.cores[0].l2.demand_misses(),
                    r.cores[0].l2.demand_misses(),
                ));
            }
        }
        eprintln!("  {} done", w.name());
    }

    println!("Related work — Rosenblatt filter vs PPF (memory-intensive subset)\n");
    let mut t = TextTable::new(vec!["scheme", "geomean speedup", "mean accuracy", "mean L2 coverage"]);
    for i in 0..3 {
        t.row(vec![
            speedups[i].0.to_string(),
            format!("{:.3}", geometric_mean(&speedups[i].1)),
            format!("{:.1}%", 100.0 * mean(&accuracies[i].1)),
            format!("{:.1}%", 100.0 * mean(&coverages[i].1)),
        ]);
    }
    print!("{}", t.render());
    println!("\n(paper Sec 7.4: the basic-perceptron design increases accuracy but");
    println!(" lowers coverage, hence low performance impact; PPF raises both)");
}
