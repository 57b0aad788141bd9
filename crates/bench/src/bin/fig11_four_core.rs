//! Figure 11 — weighted speedups on 4-core memory-intensive SPEC CPU 2017
//! mixes, sorted ascending per scheme, plus geometric means. Also reports
//! the fully-random-mix geomeans the paper quotes in the text.

use ppf_analysis::{geometric_mean, percent_gain, sorted_series};
use ppf_bench::{run_mix_suite, runner, RunScale, Scheme};
use ppf_trace::{MixGenerator, Suite, Workload, WorkloadMix};

fn run_batch(label: &str, experiment: &str, mixes: &[WorkloadMix], scale: RunScale) {
    let cores = mixes[0].cores();
    let threads = runner::thread_count();
    eprintln!("{label}: {} mixes x 5 schemes on {threads} thread(s)...", mixes.len());
    let runs = run_mix_suite(experiment, mixes, cores, scale).runs;

    let per_scheme: Vec<(Scheme, Vec<f64>)> = Scheme::prefetchers()
        .into_iter()
        .enumerate()
        .map(|(k, s)| (s, runs.iter().map(|r| r.speedups[k].1).collect()))
        .collect();

    println!("\n== {label} ==");
    for (s, xs) in &per_scheme {
        println!("{}", sorted_series(&format!("{} weighted speedup", s.label()), xs.clone(), 40));
    }
    let geo: Vec<(Scheme, f64)> =
        per_scheme.iter().map(|(s, xs)| (*s, geometric_mean(xs))).collect();
    for (s, g) in &geo {
        println!("geomean {}: {:.3}", s.label(), g);
    }
    let ppf = geo.iter().find(|(s, _)| *s == Scheme::Ppf).expect("ppf ran").1;
    let spp = geo.iter().find(|(s, _)| *s == Scheme::Spp).expect("spp ran").1;
    println!("PPF over SPP: {:+.2}%", percent_gain(ppf, spp));
}

fn main() {
    let scale = RunScale::from_args();
    let intensive = Workload::memory_intensive(Suite::Spec2017);
    let mixes = MixGenerator::new(intensive, 1).draw(scale.mixes, 4);
    println!("Figure 11 — 4-core weighted speedups, memory-intensive mixes");
    println!("(paper: PPF +51.2% over baseline, +11.4% over SPP)");
    run_batch("mem-intensive 4-core", "fig11_mem_intensive", &mixes, scale);

    let all = Workload::spec2017();
    let random_mixes = MixGenerator::new(all, 2).draw(scale.mixes / 2, 4);
    println!("\nFully random mixes (paper text: PPF +26.07% over baseline, +5.6% over SPP)");
    run_batch("random 4-core", "fig11_random", &random_mixes, scale);
}
