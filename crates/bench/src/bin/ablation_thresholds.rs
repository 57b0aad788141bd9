//! Ablation — sweep PPF's inference thresholds (τ_hi/τ_lo) and training
//! saturation thresholds (θ_p/θ_n) on the memory-intensive subset.

use ppf::{Ppf, PpfConfig};
use ppf_analysis::{geometric_mean, TextTable};
use ppf_bench::sweep::Sweep;
use ppf_bench::{run_cell, run_single, runner, sweep_scalars, RunScale, Scheme};
use ppf_prefetchers::Spp;
use ppf_sim::SystemConfig;
use ppf_trace::{Suite, Workload};

fn geomean_speedup(
    sweep: &Sweep,
    tag: &str,
    workloads: &[Workload],
    base: &[Option<f64>],
    cfg: &PpfConfig,
    scale: RunScale,
) -> f64 {
    let jobs: Vec<(String, runner::BoxedJob<f64>)> = workloads
        .iter()
        .zip(base)
        .filter_map(|(w, b)| {
            let b = (*b)?;
            let key = format!("{tag}/{}", w.name());
            let w = w.clone();
            let cfg = cfg.clone();
            let tag = tag.to_string();
            let job: runner::BoxedJob<f64> = Box::new(move || {
                let pf = Box::new(Ppf::with_config(Spp::default(), cfg));
                run_cell(SystemConfig::single_core(), &w, &tag, pf, scale).0.ipc() / b
            });
            Some((key, job))
        })
        .collect();
    let xs: Vec<f64> = sweep_scalars(sweep, jobs).into_iter().flatten().collect();
    geometric_mean(&xs)
}

fn main() {
    let scale = RunScale::from_args();
    let workloads = Workload::memory_intensive(Suite::Spec2017);
    let sweep = Sweep::from_args("ablation_thresholds");
    let base_jobs: Vec<(String, runner::BoxedJob<f64>)> = workloads
        .iter()
        .map(|w| {
            let key = format!("baseline/{}", w.name());
            let w = w.clone();
            let job: runner::BoxedJob<f64> = Box::new(move || {
                let ipc =
                    run_single(SystemConfig::single_core(), &w, Scheme::Baseline, scale).ipc();
                eprintln!("  baseline {} done", w.name());
                ipc
            });
            (key, job)
        })
        .collect();
    let base = sweep_scalars(&sweep, base_jobs);

    println!("Threshold ablation — PPF geomean speedup, memory-intensive subset\n");
    let mut t = TextTable::new(vec!["tau_hi", "tau_lo", "theta_p", "theta_n", "geomean"]);
    for (hi, lo) in [(-5, -15), (0, -10), (10, -5), (-10, -25), (25, 0)] {
        let cfg = PpfConfig { tau_hi: hi, tau_lo: lo, ..PpfConfig::default() };
        let g = geomean_speedup(&sweep, &format!("tau{hi}_{lo}"), &workloads, &base, &cfg, scale);
        eprintln!("  tau ({hi},{lo}): {g:.3}");
        t.row(vec![hi.to_string(), lo.to_string(), "90".into(), "-80".into(), format!("{g:.3}")]);
    }
    for (p, n) in [(90, -80), (40, -35), (135, -144)] {
        let cfg = PpfConfig { theta_p: p, theta_n: n, ..PpfConfig::default() };
        let g = geomean_speedup(&sweep, &format!("theta{p}_{n}"), &workloads, &base, &cfg, scale);
        eprintln!("  theta ({p},{n}): {g:.3}");
        t.row(vec!["-5".into(), "-15".into(), p.to_string(), n.to_string(), format!("{g:.3}")]);
    }
    print!("{}", t.render());
}
