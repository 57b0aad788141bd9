//! Extension ablation — LRU (the paper's configuration) versus SRRIP
//! replacement in the L2/LLC, with and without PPF. Scan-resistant
//! replacement overlaps partially with prefetch filtering (both fight
//! pollution), so their gains do not simply add.

use ppf_analysis::{geometric_mean, TextTable};
use ppf_bench::sweep::Sweep;
use ppf_bench::{run_suite, RunScale, Scheme, Variant};
use ppf_sim::{ReplacementPolicy, SystemConfig};
use ppf_trace::{Suite, Workload};

fn cfg_with(policy: ReplacementPolicy) -> SystemConfig {
    let mut c = SystemConfig::single_core();
    c.l2.policy = policy;
    c.llc.policy = policy;
    c
}

fn main() {
    let scale = RunScale::from_args();
    let workloads = Workload::memory_intensive(Suite::Spec2017);
    let sweep = Sweep::from_args("ablation_replacement");
    println!("Replacement-policy ablation — memory-intensive subset\n");
    let mut t = TextTable::new(vec!["policy", "SPP", "PPF"]);
    for (label, policy) in
        [("LRU (paper)", ReplacementPolicy::Lru), ("SRRIP", ReplacementPolicy::Srrip)]
    {
        let tag = format!("{policy:?}");
        let variants = [Scheme::Baseline, Scheme::Spp, Scheme::Ppf]
            .map(|s| Variant::from(s).tagged(&tag));
        let rows = run_suite(&sweep, cfg_with(policy), &workloads, &variants, scale).rows;
        let mut cells = vec![label.to_string()];
        for v in &variants[1..] {
            let xs: Vec<f64> = rows.iter().map(|r| r.speedup(v.label())).collect();
            cells.push(format!("{:.3}", geometric_mean(&xs)));
        }
        t.row(cells);
    }
    print!("{}", t.render());
}
