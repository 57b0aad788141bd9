//! Figure 6 — distribution of trained perceptron weights for a strong
//! feature (Confidence XOR Page address, retained) and a weak one
//! (Last Signature, rejected), concatenated over the SPEC CPU 2017 runs.

use ppf::{FeatureKind, Ppf, PpfConfig};
use ppf_analysis::WeightHistogram;
use ppf_bench::{run_cell, RunScale};
use ppf_prefetchers::Spp;
use ppf_sim::SystemConfig;
use ppf_trace::{Suite, Workload};

fn main() {
    let scale = RunScale::from_args();
    // PPF extended with the rejected Last-Signature feature so its weights
    // can be observed side-by-side with the retained set.
    let mut features = FeatureKind::default_set();
    features.push(FeatureKind::LastSignature);
    let strong_idx =
        features.iter().position(|f| *f == FeatureKind::ConfidenceXorPage).expect("present");
    let weak_idx = features.len() - 1;

    let mut strong: Option<WeightHistogram> = None;
    let mut weak: Option<WeightHistogram> = None;
    for w in Workload::memory_intensive(Suite::Spec2017) {
        let cfg = PpfConfig { features: features.clone(), ..PpfConfig::default() };
        let pf = Box::new(Ppf::with_config(Spp::default(), cfg));
        let (_, sim) = run_cell(SystemConfig::single_core(), &w, "PPF+last-sig", pf, scale);
        let p = sim.prefetcher::<Ppf<Spp>>(0).expect("PPF cell").filter().perceptron();
        eprintln!("  {} done", w.name());
        let hs = WeightHistogram::of(p.feature_weights(strong_idx));
        let hw = WeightHistogram::of(p.feature_weights(weak_idx));
        match &mut strong {
            Some(acc) => acc.merge(&hs),
            None => strong = Some(hs),
        }
        match &mut weak {
            Some(acc) => acc.merge(&hw),
            None => weak = Some(hw),
        }
    }
    let strong = strong.expect("ran at least one workload");
    let weak = weak.expect("ran at least one workload");

    println!("Figure 6 — distribution of trained weights\n");
    print!("{}", strong.render("(a) Confidence XOR Page address — retained", 40));
    println!();
    print!("{}", weak.render("(b) Last Signature — rejected", 40));
    println!(
        "\nnear-zero (|w| <= 1) mass: retained {:.1}%, rejected {:.1}%",
        100.0 * strong.near_zero_fraction(1),
        100.0 * weak.near_zero_fraction(1)
    );
    println!("(paper: the rejected feature's weights settle near zero; the");
    println!(" retained feature's weights spread toward the saturation points)");
}
