//! Accuracy as a function of lookahead depth — the dynamics behind the
//! paper's Figure 1 and Sec 6.1: deeper candidates are less accurate, and
//! PPF's per-depth accept rate shows the filter compensating.

use ppf::wrapper::DEPTH_BUCKETS;
use ppf::Ppf;
use ppf_analysis::TextTable;
use ppf_bench::{run_cell, RunScale, Scheme};
use ppf_prefetchers::Spp;
use ppf_sim::SystemConfig;
use ppf_trace::{Suite, Workload};

fn main() {
    let scale = RunScale::from_args();
    let mut accepted = [0u64; DEPTH_BUCKETS];
    let mut rejected = [0u64; DEPTH_BUCKETS];
    let mut useful = [0u64; DEPTH_BUCKETS];
    for w in Workload::memory_intensive(Suite::Spec2017) {
        let (_, sim) = run_cell(SystemConfig::single_core(), &w, "PPF", Scheme::Ppf.build(), scale);
        let s = sim.prefetcher::<Ppf<Spp>>(0).expect("PPF cell").stats;
        for d in 0..DEPTH_BUCKETS {
            accepted[d] += s.accepted_by_depth[d];
            rejected[d] += s.rejected_by_depth[d];
            useful[d] += s.useful_by_depth[d];
        }
        eprintln!("  {} done", w.name());
    }

    println!("PPF accept rate and usefulness by lookahead depth");
    println!("(memory-intensive SPEC CPU 2017 subset, aggregated)\n");
    let mut t =
        TextTable::new(vec!["depth", "candidates", "accept rate", "useful/accepted"]);
    for d in 0..DEPTH_BUCKETS {
        let total = accepted[d] + rejected[d];
        if total < 100 {
            continue;
        }
        t.row(vec![
            if d == DEPTH_BUCKETS - 1 { format!("{}+", d + 1) } else { format!("{}", d + 1) },
            total.to_string(),
            format!("{:.1}%", 100.0 * accepted[d] as f64 / total as f64),
            format!("{:.1}%", 100.0 * useful[d] as f64 / accepted[d].max(1) as f64),
        ]);
    }
    print!("{}", t.render());
    println!("\n(the filter prunes harder at depths where usefulness decays —");
    println!(" the learned replacement for SPP's monotone confidence throttle)");
}
