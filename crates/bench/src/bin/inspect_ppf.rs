//! Developer tool: run PPF on one workload and dump the filter's internal
//! state — per-feature weight statistics, training counters, SPP depth.
//!
//! ```sh
//! cargo run --release -p ppf-bench --bin inspect_ppf [workload]
//! ```

use ppf::Ppf;
use ppf_bench::{run_cell, RunScale, Scheme};
use ppf_prefetchers::Spp;
use ppf_sim::SystemConfig;
use ppf_trace::Workload;

fn main() {
    let app = std::env::args().nth(1).unwrap_or("623.xalancbmk_s".into());
    let w = Workload::by_name(&app).unwrap_or_else(|| {
        eprintln!("unknown workload {app}");
        std::process::exit(2);
    });
    let scale = RunScale::default_scale();
    let (r, sim) = run_cell(SystemConfig::single_core(), &w, "PPF", Scheme::Ppf.build(), scale);
    let c = &r.cores[0];
    println!("ipc={:.3} l2miss={} llcmiss={} pf[em={} iss={} useful={} redundant={} q={}]",
        c.ipc(), c.l2.demand_misses(), r.llc.demand_misses(),
        c.prefetch.emitted, c.prefetch.issued, c.prefetch.useful_total(), c.prefetch.dropped_redundant, c.prefetch.dropped_queue);

    let ppf = sim.prefetcher::<Ppf<Spp>>(0).expect("PPF cell");
    let f = ppf.filter();
    println!("filter stats: {:?}", f.stats);
    println!("ppf stats: {:?} avg_depth={:.2}", ppf.stats, ppf.stats.average_accepted_depth());
    println!("spp stats: {:?} avg_depth={:.2}", ppf.source().stats, ppf.source().stats.average_depth());
    println!("spp alpha: {}", ppf.source().alpha_percent());
    for (i, k) in f.features().iter().enumerate() {
        let w = f.perceptron().feature_weights(i);
        let nonzero = w.iter().filter(|&&x| x != 0).count();
        let sum: i64 = w.iter().map(|&x| x as i64).sum();
        let min = w.iter().min().unwrap();
        let max = w.iter().max().unwrap();
        println!("  {:<20} nonzero={:<6} mean={:>7.3} min={} max={}", k.label(), nonzero, sum as f64 / nonzero.max(1) as f64, min, max);
    }
}
