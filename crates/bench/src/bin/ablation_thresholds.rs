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
    // (tau_hi, tau_lo, theta_p, theta_n) per row, each other field at its default.
    let mut settings = Vec::new();
    let mut variants = vec![Scheme::Baseline.into()];
    for (hi, lo) in [(-5, -15), (0, -10), (10, -5), (-10, -25), (25, 0)] {
        settings.push([hi, lo, 90, -80]);
        let cfg = PpfConfig { tau_hi: hi, tau_lo: lo, ..PpfConfig::default() };
        variants.push(Variant::ppf(format!("tau{hi}_{lo}"), cfg));
    }
    for (p, n) in [(90, -80), (40, -35), (135, -144)] {
        settings.push([-5, -15, p, n]);
        let cfg = PpfConfig { theta_p: p, theta_n: n, ..PpfConfig::default() };
        variants.push(Variant::ppf(format!("theta{p}_{n}"), cfg));
    }
    let sweep = Sweep::from_args("ablation_thresholds");
    let rows = run_suite(&sweep, SystemConfig::single_core(), &workloads, &variants, scale).rows;

    println!("Threshold ablation — PPF geomean speedup, memory-intensive subset\n");
    let mut t = TextTable::new(vec!["tau_hi", "tau_lo", "theta_p", "theta_n", "geomean"]);
    for (row, v) in settings.iter().zip(&variants[1..]) {
        let xs: Vec<f64> = rows.iter().map(|r| r.speedup(v.label())).collect();
        let mut cells: Vec<String> = row.iter().map(i32::to_string).collect();
        cells.push(format!("{:.3}", geometric_mean(&xs)));
        t.row(cells);
    }
    print!("{}", t.render());
}
