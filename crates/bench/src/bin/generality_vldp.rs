//! Generality check (paper Sec 3.2: "PPF can be adapted to be used over any
//! underlying prefetcher"): the same filter, unchanged, over VLDP instead of
//! SPP.

use ppf::Ppf;
use ppf_analysis::{geometric_mean, percent_gain, TextTable};
use ppf_bench::sweep::Sweep;
use ppf_bench::{run_suite, RunScale, Scheme, Variant};
use ppf_prefetchers::{Spp, Vldp};
use ppf_sim::SystemConfig;
use ppf_trace::{Suite, Workload};

fn main() {
    let scale = RunScale::from_args();
    let workloads = Workload::memory_intensive(Suite::Spec2017);
    let variants = [
        Scheme::Baseline.into(),
        Variant::new("VLDP", || Box::new(Vldp::default())),
        Variant::new("PPF over VLDP", || Box::new(Ppf::new(Vldp::default()))),
        Variant::new("SPP", || Box::new(Spp::default())),
        Variant::new("PPF over SPP", || Box::new(Ppf::new(Spp::default()))),
    ];
    let sweep = Sweep::from_args("generality_vldp");
    let rows = run_suite(&sweep, SystemConfig::single_core(), &workloads, &variants, scale).rows;

    println!("PPF generality — same filter over two lookahead prefetchers");
    println!("(memory-intensive SPEC CPU 2017 subset)\n");
    let mut t = TextTable::new(vec!["scheme", "geomean speedup"]);
    let mut geo = Vec::new();
    for v in &variants[1..] {
        let xs: Vec<f64> = rows.iter().map(|r| r.speedup(v.label())).collect();
        let g = geometric_mean(&xs);
        geo.push(g);
        t.row(vec![v.label().to_string(), format!("{g:.3}")]);
    }
    print!("{}", t.render());
    println!(
        "\nPPF over VLDP: {:+.2}% | PPF over SPP: {:+.2}%",
        percent_gain(geo[1], geo[0]),
        percent_gain(geo[3], geo[2])
    );
}
