//! Figure 9 — single-core IPC speedup over no-prefetching for BOP, DA-AMPM,
//! SPP and PPF on all 20 SPEC CPU 2017 models, with geometric means over the
//! memory-intensive subset and the full suite.
//!
//! With `--verbose`, also prints the paper's Sec 6.1 statistics: average
//! lookahead depths (SPP vs PPF) and the xalancbmk prefetch-count ratios.

use ppf::Ppf;
use ppf_analysis::{geometric_mean, percent_gain, TextTable};
use ppf_bench::sweep::Sweep;
use ppf_bench::{run_cell, run_suite, RunScale, Scheme, Variant};
use ppf_prefetchers::Spp;
use ppf_sim::SystemConfig;
use ppf_trace::Workload;

fn main() {
    let scale = RunScale::from_args();
    let verbose = std::env::args().any(|a| a == "--verbose");
    let workloads = Workload::spec2017();
    let sweep = Sweep::from_args("fig09_single_core");
    eprintln!(
        "Figure 9: {} workloads x {} schemes on {} thread(s)...",
        workloads.len(),
        Scheme::all().len(),
        sweep.threads()
    );
    let variants = Scheme::all().map(Variant::from);
    let rows = run_suite(&sweep, SystemConfig::single_core(), &workloads, &variants, scale).rows;

    let mut table = TextTable::new(vec!["app", "BOP", "DA-AMPM", "SPP", "PPF"]);
    for row in &rows {
        let mut cells = vec![format!(
            "{}{}",
            row.app,
            if row.mem_intensive { " *" } else { "" }
        )];
        for s in Scheme::prefetchers() {
            cells.push(format!("{:.3}", row.speedup(s)));
        }
        table.row(cells);
    }
    for (label, filter) in [("geomean (mem-intensive)", true), ("geomean (all)", false)] {
        let mut cells = vec![label.to_string()];
        for s in Scheme::prefetchers() {
            let xs: Vec<f64> = rows
                .iter()
                .filter(|r| !filter || r.mem_intensive)
                .map(|r| r.speedup(s))
                .collect();
            cells.push(format!("{:.3}", geometric_mean(&xs)));
        }
        table.row(cells);
    }
    println!("Figure 9 — single-core IPC speedup over no prefetching");
    println!("(* = memory-intensive subset, LLC MPKI > 1)\n");
    print!("{}", table.render());

    // Headline comparisons (paper: PPF +3.78% over SPP on the memory-
    // intensive subset; +2.27% on the full suite).
    let geo = |scheme: Scheme, intensive: bool| {
        let xs: Vec<f64> = rows
            .iter()
            .filter(|r| !intensive || r.mem_intensive)
            .map(|r| r.speedup(scheme))
            .collect();
        geometric_mean(&xs)
    };
    println!();
    for (label, intensive) in [("memory-intensive subset", true), ("full suite", false)] {
        let ppf = geo(Scheme::Ppf, intensive);
        println!(
            "{label}: PPF {:+.2}% vs SPP, {:+.2}% vs DA-AMPM, {:+.2}% vs BOP, {:+.2}% vs baseline",
            percent_gain(ppf, geo(Scheme::Spp, intensive)),
            percent_gain(ppf, geo(Scheme::DaAmpm, intensive)),
            percent_gain(ppf, geo(Scheme::Bop, intensive)),
            percent_gain(ppf, 1.0),
        );
    }

    if verbose {
        println!("\nSec 6.1 statistics (lookahead depth and xalancbmk ratios):");
        let mut spp_depths = Vec::new();
        let mut ppf_depths = Vec::new();
        let cell = |w: &Workload, s: Scheme| {
            run_cell(SystemConfig::single_core(), w, s.label(), s.build(), scale)
        };
        for w in &workloads {
            let (spp_r, spp_sim) = cell(w, Scheme::Spp);
            let (ppf_r, ppf_sim) = cell(w, Scheme::Ppf);
            let sd = spp_sim.prefetcher::<Spp>(0).expect("SPP cell").stats.average_depth();
            let ppf = ppf_sim.prefetcher::<Ppf<Spp>>(0).expect("PPF cell");
            let pd = ppf.stats.average_accepted_depth();
            if sd > 0.0 {
                spp_depths.push(sd);
            }
            if pd > 0.0 {
                ppf_depths.push(pd);
            }
            if w.name() == "623.xalancbmk_s" {
                println!(
                    "  xalancbmk: SPP depth {sd:.2}, PPF depth {pd:.2}; total prefetches {:.2}x, useful {:.2}x (paper: 2.1 / 3.3 / 1.61x / 2.53x)",
                    ppf_r.cores[0].prefetch.issued as f64
                        / spp_r.cores[0].prefetch.issued.max(1) as f64,
                    ppf_r.cores[0].prefetch.useful_total() as f64
                        / spp_r.cores[0].prefetch.useful_total().max(1) as f64,
                );
            }
        }
        println!(
            "  average lookahead depth: SPP {:.2}, PPF {:.2} (paper: 3.28 vs 3.97, 21% deeper)",
            spp_depths.iter().sum::<f64>() / spp_depths.len().max(1) as f64,
            ppf_depths.iter().sum::<f64>() / ppf_depths.len().max(1) as f64,
        );
    }
}
