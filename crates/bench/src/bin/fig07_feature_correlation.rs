//! Figure 7 — global Pearson correlation of each of the nine retained
//! features with the prefetch outcome, in ascending order.

use ppf::{Ppf, PpfConfig};
use ppf_analysis::{feature_correlations, TextTable};
use ppf_bench::{run_cell, RunScale};
use ppf_prefetchers::Spp;
use ppf_sim::SystemConfig;
use ppf_trace::{Suite, Workload};

fn main() {
    let scale = RunScale::from_args();
    // Concatenate training events across the memory-intensive suite.
    let mut all_events = Vec::new();
    let mut features = None;
    for w in Workload::memory_intensive(Suite::Spec2017) {
        let cfg = PpfConfig { event_log_capacity: 50_000, ..PpfConfig::default() };
        let pf = Box::new(Ppf::with_config(Spp::default(), cfg));
        let (_, sim) = run_cell(SystemConfig::single_core(), &w, "PPF", pf, scale);
        let ppf = sim.prefetcher::<Ppf<Spp>>(0).expect("PPF cell");
        features.get_or_insert_with(|| ppf.filter().features().to_vec());
        all_events.extend(ppf.filter().training_events().iter().cloned());
        eprintln!("  {}: {} events", w.name(), ppf.filter().training_events().len());
    }
    let features = features.expect("at least one run");
    let mut cs = feature_correlations(&features, &all_events);
    cs.sort_by(|a, b| a.r.abs().partial_cmp(&b.r.abs()).expect("no NaN"));

    println!("Figure 7 — global Pearson correlation per feature (ascending |r|)\n");
    let mut t = TextTable::new(vec!["feature", "Pearson r", "events"]);
    for c in &cs {
        t.row(vec![c.feature.label().to_string(), format!("{:+.3}", c.r), c.events.to_string()]);
    }
    print!("{}", t.render());
    println!("\n(paper: 5 of 9 features have |r| > 0.6; Confidence XOR Page");
    println!(" address is the strongest at 0.90)");
}
