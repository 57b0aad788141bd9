//! Feature-engineering walkthrough (paper Sec 5.5): train PPF on one
//! workload with an event log, then inspect which features actually carry
//! signal — Pearson correlations, weight histograms, and redundancy.
//!
//! ```sh
//! cargo run --release --example feature_analysis
//! ```

use ppf_repro::analysis::{feature_correlations, redundant_pairs, WeightHistogram};
use ppf_repro::filter::{FeatureKind, Ppf, PpfConfig};
use ppf_repro::prefetchers::Spp;
use ppf_repro::sim::{Simulation, SystemConfig};
use ppf_repro::trace::{TraceBuilder, Workload};

fn main() {
    let workload = Workload::by_name("623.xalancbmk_s").expect("known workload");
    // Include one feature the paper rejected, to see why.
    let mut features = FeatureKind::default_set();
    features.push(FeatureKind::LastSignature);
    let cfg = PpfConfig { features, event_log_capacity: 40_000, ..PpfConfig::default() };

    let trace = Box::new(TraceBuilder::new(workload.clone()).seed(42).build());
    let mut sim = Simulation::new(SystemConfig::single_core());
    sim.add_core(workload.name(), trace, Box::new(Ppf::with_config(Spp::default(), cfg)));
    sim.run(100_000, 600_000);

    // The simulation hands the trained filter back by its concrete type.
    let filter = sim.prefetcher::<Ppf<Spp>>(0).expect("core 0 runs PPF over SPP").filter();
    println!(
        "workload {}: {} inferences, {} positive / {} negative trainings\n",
        workload.name(),
        filter.stats.inferences,
        filter.stats.positive_trains,
        filter.stats.negative_trains
    );

    // Per-feature correlation with the prefetch outcome.
    let mut cs = feature_correlations(filter.features(), filter.training_events());
    cs.sort_by(|a, b| b.r.abs().partial_cmp(&a.r.abs()).expect("no NaN"));
    println!("feature correlations (descending |r|):");
    for c in &cs {
        println!("  {:<20} r = {:+.3}", c.feature.label(), c.r);
    }

    // Redundant pairs would be pruned (paper trimmed 23 features to 9).
    let pairs = redundant_pairs(filter.features(), filter.training_events(), 0.9);
    println!("\nredundant pairs (|r| > 0.9): {}", pairs.len());
    for (a, b, r) in &pairs {
        println!("  {} ~ {} (r = {:+.2})", a.label(), b.label(), r);
    }

    // Weight histograms: strongest feature vs the rejected one.
    let strongest = cs.first().expect("features exist").feature;
    let idx = filter.features().iter().position(|f| *f == strongest).expect("present");
    let last = filter.features().len() - 1;
    println!();
    print!(
        "{}",
        WeightHistogram::of(filter.perceptron().feature_weights(idx))
            .render(&format!("weights: {}", strongest.label()), 32)
    );
    println!();
    print!(
        "{}",
        WeightHistogram::of(filter.perceptron().feature_weights(last))
            .render("weights: last_signature (rejected by the paper)", 32)
    );
}
