//! Figure 8 — per-trace variation of the Pearson coefficient for three
//! features with low *global* correlation (PC^Delta, Signature^Delta,
//! PC^Depth): even globally weak features help on a good fraction of
//! individual traces, which is why they were retained.

use ppf::{FeatureKind, Ppf, PpfConfig};
use ppf_analysis::{feature_correlations, sorted_series};
use ppf_bench::{run_cell, RunScale};
use ppf_prefetchers::Spp;
use ppf_sim::SystemConfig;
use ppf_trace::Workload;

fn main() {
    let scale = RunScale::from_args();
    let focus =
        [FeatureKind::PcXorDelta, FeatureKind::SignatureXorDelta, FeatureKind::PcXorDepth];
    let mut per_feature: Vec<(FeatureKind, Vec<f64>)> =
        focus.iter().map(|&f| (f, Vec::new())).collect();

    for w in Workload::spec2017() {
        let cfg = PpfConfig { event_log_capacity: 50_000, ..PpfConfig::default() };
        let pf = Box::new(Ppf::with_config(Spp::default(), cfg));
        let (_, sim) = run_cell(SystemConfig::single_core(), &w, "PPF", pf, scale);
        let ppf = sim.prefetcher::<Ppf<Spp>>(0).expect("PPF cell");
        let cs = feature_correlations(ppf.filter().features(), ppf.filter().training_events());
        for (f, acc) in &mut per_feature {
            if let Some(c) = cs.iter().find(|c| c.feature == *f) {
                if c.events > 100 {
                    acc.push(c.r);
                }
            }
        }
        eprintln!("  {} done", w.name());
    }

    println!("Figure 8 — per-trace Pearson coefficient for low-global-P features\n");
    for (f, rs) in &per_feature {
        println!("{}", sorted_series(f.label(), rs.iter().map(|r| r.abs()).collect(), 40));
        let useful = rs.iter().filter(|r| r.abs() > 0.5).count();
        println!("traces with |r| > 0.5: {useful}/{}\n", rs.len());
    }
    println!("(paper: even features with low overall correlation provide");
    println!(" |r| > 0.5 on a significant number of traces)");
}
