//! Extension ablation — LRU (the paper's configuration) versus SRRIP
//! replacement in the L2/LLC, with and without PPF. Scan-resistant
//! replacement overlaps partially with prefetch filtering (both fight
//! pollution), so their gains do not simply add.

use ppf_analysis::{geometric_mean, TextTable};
use ppf_bench::sweep::Sweep;
use ppf_bench::{run_cell, runner, sweep_scalars, RunScale, Scheme};
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
        let mut cells = vec![label.to_string()];
        for scheme in [Scheme::Spp, Scheme::Ppf] {
            let jobs: Vec<(String, runner::BoxedJob<f64>)> = workloads
                .iter()
                .map(|w| {
                    let key = format!("{:?}/{}/{}", policy, scheme.label(), w.name());
                    let w = w.clone();
                    let job: runner::BoxedJob<f64> = Box::new(move || {
                        let [base, r] = [Scheme::Baseline, scheme].map(|s| {
                            let label = format!("{}-{policy:?}", s.label());
                            run_cell(cfg_with(policy), &w, &label, s.build(), scale).0
                        });
                        r.ipc() / base.ipc()
                    });
                    (key, job)
                })
                .collect();
            let xs: Vec<f64> = sweep_scalars(&sweep, jobs).into_iter().flatten().collect();
            eprintln!("  {label}/{}: done", scheme.label());
            cells.push(format!("{:.3}", geometric_mean(&xs)));
        }
        t.row(cells);
    }
    print!("{}", t.render());
}
