//! Figure 1 — the motivating experiment: SPP's lookahead depth is forced
//! from 7 to 15 on 603.bwaves_s with throttling relaxed; total prefetches
//! grow faster than useful prefetches, and IPC eventually degrades.
//! All three series are normalized to depth 7, as in the paper.

use ppf_analysis::TextTable;
use ppf_bench::sweep::Sweep;
use ppf_bench::{run_suite, RunScale, Variant};
use ppf_prefetchers::{Spp, SppConfig};
use ppf_sim::SystemConfig;
use ppf_trace::Workload;

fn main() {
    let scale = RunScale::from_args();
    let w = Workload::by_name("603.bwaves_s").expect("bwaves exists");
    let variants: Vec<Variant> = (7..=15u8)
        .map(|depth| {
            // Re-tune SPP for fixed aggressiveness: threshold low enough that
            // the lookahead reaches `depth` and stops there (the paper
            // iteratively re-tuned the confidence threshold per depth).
            let cfg = SppConfig {
                prefetch_threshold: 1,
                fill_threshold: 90,
                max_depth: depth,
                max_candidates: 2 * depth as usize,
                ..SppConfig::default()
            };
            Variant::new(format!("SPP-depth{depth}"), move || Box::new(Spp::new(cfg.clone())))
        })
        .collect();
    let sweep = Sweep::from_args("fig01_aggressiveness");
    let outcome = run_suite(&sweep, SystemConfig::single_core(), &[w], &variants, scale);
    let Some(row) = outcome.rows.first() else {
        eprintln!("fig01: a 603.bwaves_s cell failed; no figure to print");
        std::process::exit(1);
    };
    // TOTAL_PF follows the paper's definition: prefetches *issued by the
    // prefetcher* (before redundancy filtering); GOOD_PF are the useful ones.
    let series: Vec<(f64, u64, u64)> = row
        .reports
        .iter()
        .map(|(_, r)| (r.ipc(), r.cores[0].prefetch.emitted, r.cores[0].prefetch.useful_total()))
        .collect();
    let base = series[0];

    println!("Figure 1 — impact of aggressive prefetching on 603.bwaves_s");
    println!("(all series normalized to lookahead depth 7)\n");
    let mut t = TextTable::new(vec!["depth", "IPC", "TOTAL_PF", "GOOD_PF"]);
    for (depth, (ipc, total, good)) in (7..=15u8).zip(&series) {
        t.row(vec![
            format!("{depth}"),
            format!("{:.3}", ipc / base.0),
            format!("{:.3}", *total as f64 / base.1 as f64),
            format!("{:.3}", *good as f64 / base.2 as f64),
        ]);
    }
    print!("{}", t.render());
    let last = series.last().expect("nine depths");
    println!(
        "\nDepth 7 -> 15: TOTAL_PF x{:.2}, GOOD_PF x{:.2}, IPC x{:.2}",
        last.1 as f64 / base.1 as f64,
        last.2 as f64 / base.2 as f64,
        last.0 / base.0,
    );
    println!("(paper: total prefetches outgrow useful ones and IPC drops ~9%)");
}
