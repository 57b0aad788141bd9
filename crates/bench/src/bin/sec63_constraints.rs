//! Section 6.3 — additional memory constraints: low-bandwidth DRAM
//! (3.2 GB/s) and a small (512 KB) LLC, on the memory-intensive subset.

use ppf_analysis::{geometric_mean, TextTable};
use ppf_bench::sweep::Sweep;
use ppf_bench::{run_suite, RunScale, Scheme, Variant};
use ppf_sim::SystemConfig;
use ppf_trace::{Suite, Workload};

/// A named configuration constructor.
type ConfigFn = fn() -> SystemConfig;

fn main() {
    let scale = RunScale::from_args();
    let workloads = Workload::memory_intensive(Suite::Spec2017);
    println!("Section 6.3 — memory-constrained configurations, mem-intensive subset\n");
    let mut t = TextTable::new(vec!["config", "BOP", "DA-AMPM", "SPP", "PPF"]);
    let configs: [(&str, &str, ConfigFn); 3] = [
        ("default", "default", SystemConfig::single_core),
        ("low bandwidth (3.2 GB/s)", "low_bandwidth", SystemConfig::low_bandwidth),
        ("small LLC (512 KB)", "small_llc", SystemConfig::small_llc),
    ];
    for (label, tag, cfg) in configs {
        eprintln!("config: {label}");
        // Each configuration's cells carry its tag, so their checkpoint
        // keys and telemetry exports never collide with another's.
        let variants = Scheme::all().map(|s| Variant::from(s).tagged(tag));
        let sweep = Sweep::from_args(&format!("sec63_{tag}"));
        let rows = run_suite(&sweep, cfg(), &workloads, &variants, scale).rows;
        let mut cells = vec![label.to_string()];
        for v in &variants[1..] {
            let xs: Vec<f64> = rows.iter().map(|r| r.speedup(v.label())).collect();
            cells.push(format!("{:.3}", geometric_mean(&xs)));
        }
        t.row(cells);
    }
    print!("{}", t.render());
    println!("\n(paper: PPF's edge grows with a small LLC and it matches the");
    println!(" best prefetcher, BOP, under low DRAM bandwidth)");
}
