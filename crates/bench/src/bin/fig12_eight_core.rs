//! Figure 12 — weighted speedups on 8-core memory-intensive SPEC CPU 2017
//! mixes (the paper runs a shorter region at 8 cores; so do we).

use ppf_analysis::{geometric_mean, percent_gain, sorted_series};
use ppf_bench::sweep::Sweep;
use ppf_bench::{run_mix_suite, RunScale, Scheme};
use ppf_trace::{MixGenerator, Suite, Workload};

fn main() {
    let mut scale = RunScale::from_args();
    // Paper Sec 5.3: 8-core runs use a 10x shorter region to stay tractable.
    scale.measure /= 4;
    scale.mixes = (scale.mixes / 2).max(3);
    let intensive = Workload::memory_intensive(Suite::Spec2017);
    let mixes = MixGenerator::new(intensive, 3).draw(scale.mixes, 8);

    let sweep = Sweep::from_args("fig12_eight_core");
    eprintln!("Figure 12: {} mixes x 5 schemes on {} thread(s)...", mixes.len(), sweep.threads());
    let runs = run_mix_suite(&sweep, &mixes, 8, scale).runs;
    let per_scheme: Vec<(Scheme, Vec<f64>)> = Scheme::prefetchers()
        .into_iter()
        .enumerate()
        .map(|(k, s)| (s, runs.iter().map(|r| r.speedups[k].1).collect()))
        .collect();

    println!("Figure 12 — 8-core weighted speedups, memory-intensive mixes");
    println!("(paper: PPF +37.6% over baseline, +9.65% over SPP)\n");
    for (s, xs) in &per_scheme {
        println!("{}", sorted_series(&format!("{} weighted speedup", s.label()), xs.clone(), 40));
    }
    let geo: Vec<(Scheme, f64)> =
        per_scheme.iter().map(|(s, xs)| (*s, geometric_mean(xs))).collect();
    for (s, g) in &geo {
        println!("geomean {}: {:.3}", s.label(), g);
    }
    let ppf = geo.iter().find(|(s, _)| *s == Scheme::Ppf).expect("ppf").1;
    let spp = geo.iter().find(|(s, _)| *s == Scheme::Spp).expect("spp").1;
    println!("PPF over SPP: {:+.2}%", percent_gain(ppf, spp));
}
