//! Ablation — sweep PPF's inference thresholds (τ_hi/τ_lo) and training
//! saturation thresholds (θ_p/θ_n) on the memory-intensive subset.

use ppf::PpfConfig;
use ppf_analysis::{geometric_mean, TextTable};
use ppf_bench::sweep::Sweep;
use ppf_bench::{run_suite, RunScale, Scheme, Variant};
use ppf_sim::SystemConfig;
use ppf_trace::{Suite, Workload};

fn main() {
    let scale = RunScale::from_args();
    let workloads = Workload::memory_intensive(Suite::Spec2017);
    // (tau_hi, tau_lo, theta_p, theta_n) per row, each other field at its
    // default. The τ row (-5, -15) and the θ row (90, -80) are both the
    // default configuration, so they share one variant.
    let settings: Vec<[i32; 4]> = [(-5, -15), (0, -10), (10, -5), (-10, -25), (25, 0)]
        .map(|(hi, lo)| [hi, lo, 90, -80])
        .into_iter()
        .chain([(90, -80), (40, -35), (135, -144)].map(|(p, n)| [-5, -15, p, n]))
        .collect();
    let label = |[hi, lo, p, n]: [i32; 4]| format!("tau{hi}_{lo}_theta{p}_{n}");
    let mut variants: Vec<Variant> = vec![Scheme::Baseline.into()];
    for &row in &settings {
        if variants.iter().all(|v| v.label() != label(row)) {
            let [tau_hi, tau_lo, theta_p, theta_n] = row;
            let cfg = PpfConfig { tau_hi, tau_lo, theta_p, theta_n, ..PpfConfig::default() };
            variants.push(Variant::ppf(label(row), cfg));
        }
    }
    let sweep = Sweep::from_args("ablation_thresholds");
    let rows = run_suite(&sweep, SystemConfig::single_core(), &workloads, &variants, scale).rows;

    println!("Threshold ablation — PPF geomean speedup, memory-intensive subset\n");
    let mut t = TextTable::new(vec!["tau_hi", "tau_lo", "theta_p", "theta_n", "geomean"]);
    for &row in &settings {
        let xs: Vec<f64> = rows.iter().map(|r| r.speedup(label(row))).collect();
        let mut cells: Vec<String> = row.iter().map(i32::to_string).collect();
        cells.push(format!("{:.3}", geometric_mean(&xs)));
        t.row(cells);
    }
    print!("{}", t.render());
}
