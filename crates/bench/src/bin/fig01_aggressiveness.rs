//! Figure 1 — the motivating experiment: SPP's lookahead depth is forced
//! from 7 to 15 on 603.bwaves_s with throttling relaxed; total prefetches
//! grow faster than useful prefetches, and IPC eventually degrades.
//! All three series are normalized to depth 7, as in the paper.

use ppf_analysis::TextTable;
use ppf_bench::{run_cell, RunScale};
use ppf_prefetchers::{Spp, SppConfig};
use ppf_sim::SystemConfig;
use ppf_trace::Workload;

fn main() {
    let scale = RunScale::from_args();
    let w = Workload::by_name("603.bwaves_s").expect("bwaves exists");
    let mut rows: Vec<(u8, f64, u64, u64)> = Vec::new();
    for depth in 7..=15u8 {
        // Re-tune SPP for fixed aggressiveness: threshold low enough that the
        // lookahead reaches `depth` and stops there (the paper iteratively
        // re-tuned the confidence threshold per depth).
        let cfg = SppConfig {
            prefetch_threshold: 1,
            fill_threshold: 90,
            max_depth: depth,
            max_candidates: 2 * depth as usize,
            ..SppConfig::default()
        };
        let label = format!("SPP-depth{depth}");
        let pf = Box::new(Spp::new(cfg));
        let (r, _) = run_cell(SystemConfig::single_core(), &w, &label, pf, scale);
        let c = &r.cores[0];
        // TOTAL_PF follows the paper's definition: prefetches *issued by the
        // prefetcher* (before redundancy filtering); GOOD_PF are the useful
        // ones.
        eprintln!(
            "  depth {depth}: ipc {:.3}, emitted {}, issued {}, useful {}",
            c.ipc(),
            c.prefetch.emitted,
            c.prefetch.issued,
            c.prefetch.useful_total()
        );
        rows.push((depth, r.ipc(), c.prefetch.emitted, c.prefetch.useful_total()));
    }
    let base = rows[0];

    println!("Figure 1 — impact of aggressive prefetching on 603.bwaves_s");
    println!("(all series normalized to lookahead depth 7)\n");
    let mut t = TextTable::new(vec!["depth", "IPC", "TOTAL_PF", "GOOD_PF"]);
    for (d, ipc, total, good) in &rows {
        t.row(vec![
            format!("{d}"),
            format!("{:.3}", ipc / base.1),
            format!("{:.3}", *total as f64 / base.2 as f64),
            format!("{:.3}", *good as f64 / base.3 as f64),
        ]);
    }
    print!("{}", t.render());
    let last = rows.last().expect("rows");
    println!(
        "\nDepth 7 -> 15: TOTAL_PF x{:.2}, GOOD_PF x{:.2}, IPC x{:.2}",
        last.2 as f64 / base.2 as f64,
        last.3 as f64 / base.3 as f64,
        last.1 / base.1,
    );
    println!("(paper: total prefetches outgrow useful ones and IPC drops ~9%)");
}
