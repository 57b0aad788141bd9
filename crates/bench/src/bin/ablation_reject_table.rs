//! Ablation — disable the Reject Table's false-negative recovery by shrinking
//! it to a single entry, isolating its contribution (paper Sec 3.1: the
//! Reject Table trains the filter out of wrongly-rejected candidates).

use ppf::PpfConfig;
use ppf_analysis::{geometric_mean, TextTable};
use ppf_bench::sweep::Sweep;
use ppf_bench::{run_suite, RunScale, Scheme, Variant};
use ppf_sim::SystemConfig;
use ppf_trace::{Suite, Workload};

fn main() {
    let scale = RunScale::from_args();
    let workloads = Workload::memory_intensive(Suite::Spec2017);
    let configs = [("1024-entry reject table (paper)", 1024usize), ("disabled (1 entry)", 1)];
    let mut variants = vec![Scheme::Baseline.into()];
    for (_, entries) in configs {
        let cfg = PpfConfig { reject_table_entries: entries, ..PpfConfig::default() };
        variants.push(Variant::ppf(format!("reject{entries}"), cfg));
    }
    let sweep = Sweep::from_args("ablation_reject_table");
    let rows = run_suite(&sweep, SystemConfig::single_core(), &workloads, &variants, scale).rows;

    let mut t = TextTable::new(vec!["configuration", "geomean speedup"]);
    for ((label, _), v) in configs.iter().zip(&variants[1..]) {
        let xs: Vec<f64> = rows.iter().map(|r| r.speedup(v.label())).collect();
        t.row(vec![label.to_string(), format!("{:.3}", geometric_mean(&xs))]);
    }
    println!("\nReject-table ablation — memory-intensive subset\n");
    print!("{}", t.render());
}
