//! Generality check (paper Sec 3.2: "PPF can be adapted to be used over any
//! underlying prefetcher"): the same filter, unchanged, over VLDP instead of
//! SPP.

use ppf::Ppf;
use ppf_analysis::{geometric_mean, percent_gain, TextTable};
use ppf_bench::{run_cell, run_single, RunScale, Scheme};
use ppf_prefetchers::{Spp, Vldp};
use ppf_sim::{Prefetcher, SystemConfig};
use ppf_trace::{Suite, Workload};

fn main() {
    let scale = RunScale::from_args();
    let workloads = Workload::memory_intensive(Suite::Spec2017);
    let mut rows: Vec<(&str, Vec<f64>)> = vec![
        ("VLDP", vec![]),
        ("PPF over VLDP", vec![]),
        ("SPP", vec![]),
        ("PPF over SPP", vec![]),
    ];
    for w in &workloads {
        let base = run_single(SystemConfig::single_core(), w, Scheme::Baseline, scale).ipc();
        let runs: Vec<(usize, Box<dyn Prefetcher>)> = vec![
            (0, Box::new(Vldp::default())),
            (1, Box::new(Ppf::new(Vldp::default()))),
            (2, Box::new(Spp::default())),
            (3, Box::new(Ppf::new(Spp::default()))),
        ];
        for (i, pf) in runs {
            let (r, _) = run_cell(SystemConfig::single_core(), w, rows[i].0, pf, scale);
            rows[i].1.push(r.ipc() / base);
        }
        eprintln!("  {} done", w.name());
    }
    println!("PPF generality — same filter over two lookahead prefetchers");
    println!("(memory-intensive SPEC CPU 2017 subset)\n");
    let mut t = TextTable::new(vec!["scheme", "geomean speedup"]);
    let mut geo = Vec::new();
    for (label, xs) in &rows {
        let g = geometric_mean(xs);
        geo.push(g);
        t.row(vec![label.to_string(), format!("{g:.3}")]);
    }
    print!("{}", t.render());
    println!(
        "\nPPF over VLDP: {:+.2}% | PPF over SPP: {:+.2}%",
        percent_gain(geo[1], geo[0]),
        percent_gain(geo[3], geo[2])
    );
}
