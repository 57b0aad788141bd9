//! Figure 13 — cross-validation on workloads PPF was never tuned for:
//! (a) CloudSuite-like 4-core server applications, (b) SPEC CPU 2006-like
//! single-core models (memory-intensive subset and full set).

use ppf_analysis::{geometric_mean, percent_gain, TextTable};
use ppf_bench::sweep::Sweep;
use ppf_bench::{run_mix_suite, run_suite, RunScale, Scheme, Variant};
use ppf_sim::SystemConfig;
use ppf_trace::{Suite, Workload, WorkloadMix};

fn main() {
    let scale = RunScale::from_args();

    // (a) CloudSuite: each server app runs in 4-core rate mode.
    println!("Figure 13(a) — CloudSuite-like 4-core applications\n");
    let cloud = Workload::suite_all(Suite::CloudSuite);
    let mixes: Vec<WorkloadMix> = cloud
        .iter()
        .map(|w| WorkloadMix { id: 0, workloads: vec![w.clone(); 4] })
        .collect();
    let sweep = Sweep::from_args("fig13_cloudsuite");
    eprintln!("Figure 13(a): {} apps x 5 schemes on {} thread(s)...", cloud.len(), sweep.threads());
    let runs = run_mix_suite(&sweep, &mixes, 4, scale).runs;

    let mut t = TextTable::new(vec!["app", "BOP", "DA-AMPM", "SPP", "PPF"]);
    // Match runs back to apps by mix label (a failed app drops out of
    // `runs` rather than shifting the rows below it).
    for (w, mix) in cloud.iter().zip(&mixes) {
        let Some(run) = runs.iter().find(|r| r.label == mix.label()) else { continue };
        let mut cells = vec![w.name().to_string()];
        for (_, ws) in &run.speedups {
            cells.push(format!("{ws:.3}"));
        }
        t.row(cells);
    }
    let mut cells = vec!["geomean".to_string()];
    let mut cloud_geo = Vec::new();
    for (k, _) in Scheme::prefetchers().into_iter().enumerate() {
        let xs: Vec<f64> = runs.iter().map(|r| r.speedups[k].1).collect();
        let g = geometric_mean(&xs);
        cloud_geo.push(g);
        cells.push(format!("{g:.3}"));
    }
    t.row(cells);
    print!("{}", t.render());
    println!(
        "PPF {:+.2}% vs SPP (paper: +3.78% vs baseline on prefetch-agnostic apps, ahead of SPP's +3.08%)\n",
        percent_gain(cloud_geo[3], cloud_geo[2])
    );

    // (b) SPEC CPU 2006.
    println!("Figure 13(b) — SPEC CPU 2006-like single-core models\n");
    let workloads = Workload::suite_all(Suite::Spec2006);
    let sweep = Sweep::from_args("fig13_spec2006");
    let variants = Scheme::all().map(Variant::from);
    let rows = run_suite(&sweep, SystemConfig::single_core(), &workloads, &variants, scale).rows;
    let mut t = TextTable::new(vec!["set", "BOP", "DA-AMPM", "SPP", "PPF"]);
    for (label, intensive) in [("mem-intensive", true), ("full set", false)] {
        let mut cells = vec![label.to_string()];
        for s in Scheme::prefetchers() {
            let xs: Vec<f64> = rows
                .iter()
                .filter(|r| !intensive || r.mem_intensive)
                .map(|r| r.speedup(s))
                .collect();
            cells.push(format!("{:.3}", geometric_mean(&xs)));
        }
        t.row(cells);
    }
    print!("{}", t.render());
    println!("\n(paper: mem-intensive SPEC 2006 — PPF +36.3% over baseline,");
    println!(" +6.1% over SPP; full suite +19.6% / +3.33%)");
}
