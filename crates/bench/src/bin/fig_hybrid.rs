//! Hybrid-prefetcher fusion ablation (not a paper figure): IPC speedup of
//! PPF filtering fused candidate streams (SPP+BOP, SPP+DA-AMPM) versus
//! filtering each member scheme alone, with per-source accept/useful
//! attribution for the fused columns.
//!
//! Fused columns run with the source-id feature table
//! ([`ppf::PpfConfig::hybrid`]) so the perceptron can learn a per-scheme
//! trust bias; credit for useful prefetches is routed back to the issuing
//! member through the filter's tracking table (see DESIGN.md §11).
//!
//! ```text
//! cargo run --release -p ppf-bench --bin fig_hybrid [-- --quick] [--threads N]
//! ```

use ppf_analysis::{geometric_mean, TextTable};
use ppf_bench::hybrid::{run_fusion, Fusion, FusionCell};
use ppf_bench::{runner, sweep, RunScale};
use ppf_trace::{Suite, Workload};

fn main() {
    let scale = RunScale::from_args();
    let workloads = Workload::memory_intensive(Suite::Spec2017);
    let fusions = Fusion::all();
    let threads = runner::thread_count();
    eprintln!(
        "Hybrid fusion ablation: {} workloads x {} schemes on {} thread(s)...",
        workloads.len(),
        fusions.len(),
        threads
    );

    let sweep = sweep::Sweep::from_args("fig_hybrid");
    let jobs: Vec<(String, runner::BoxedJob<Vec<f64>>)> = workloads
        .iter()
        .flat_map(|w| fusions.into_iter().map(move |f| (w, f)))
        .map(|(w, f)| {
            let key = format!("{}/{}", w.name(), f.label());
            let w = w.clone();
            let job: runner::BoxedJob<Vec<f64>> = Box::new(move || {
                let cell = run_fusion(&w, f, scale);
                eprintln!("  {} / {}: ipc {:.3}", w.name(), f.label(), cell.ipc);
                cell.to_checkpoint()
            });
            (key, job)
        })
        .collect();
    let out = sweep.run(jobs);
    out.report();

    // Reassemble the grid; a workload is dropped whole if any cell failed
    // or decoded to the wrong arity (same policy as the main suites).
    let mut grid = out.into_outcomes().into_iter();
    let mut rows: Vec<(String, Vec<(Fusion, FusionCell)>)> = Vec::new();
    for w in &workloads {
        let cells: Option<Vec<(Fusion, FusionCell)>> = fusions
            .into_iter()
            .map(|f| {
                let payload = grid.next().expect("one outcome per grid cell").ok()?;
                Some((f, FusionCell::from_checkpoint(&payload)?))
            })
            .collect();
        match cells {
            Some(cells) => rows.push((w.name().to_string(), cells)),
            None => eprintln!("[sweep] dropped {}: incomplete results", w.name()),
        }
    }

    let cell = |row: &[(Fusion, FusionCell)], f: Fusion| {
        row.iter().find(|(x, _)| *x == f).expect("fusion was run").1
    };

    let mut table = TextTable::new(
        std::iter::once("app")
            .chain(Fusion::filtered().into_iter().map(Fusion::label))
            .map(String::from)
            .collect(),
    );
    for (app, cells) in &rows {
        let base = cell(cells, Fusion::Baseline).ipc;
        let mut out_row = vec![app.clone()];
        for f in Fusion::filtered() {
            out_row.push(format!("{:.3}", cell(cells, f).ipc / base));
        }
        table.row(out_row);
    }
    let mut geo_row = vec!["geomean".to_string()];
    for f in Fusion::filtered() {
        let xs: Vec<f64> = rows
            .iter()
            .map(|(_, cells)| cell(cells, f).ipc / cell(cells, Fusion::Baseline).ipc)
            .collect();
        geo_row.push(format!("{:.3}", geometric_mean(&xs)));
    }
    table.row(geo_row);
    println!("Hybrid fusion — IPC speedup over no prefetching (memory-intensive subset)\n");
    print!("{}", table.render());

    // Per-source attribution for the fused columns, summed over workloads:
    // did the filter treat the members differently, and who earned the
    // useful prefetches?
    for f in [Fusion::SppBop, Fusion::SppDaAmpm] {
        println!("\n{} per-source attribution:", f.label());
        let names = f.member_names();
        let mut t = TextTable::new(
            ["source", "accepted", "rejected", "accept%", "useful"]
                .map(String::from)
                .to_vec(),
        );
        let mut unattributed = 0u64;
        for (i, name) in names.iter().enumerate() {
            let (mut acc, mut rej, mut useful) = (0u64, 0u64, 0u64);
            for (_, cells) in &rows {
                let c = cell(cells, f);
                acc += c.accepted[i];
                rej += c.rejected[i];
                useful += c.useful[i];
            }
            t.row(vec![
                name.to_string(),
                acc.to_string(),
                rej.to_string(),
                format!("{:.1}%", acc as f64 / (acc + rej).max(1) as f64 * 100.0),
                useful.to_string(),
            ]);
        }
        for (_, cells) in &rows {
            unattributed += cell(cells, f).unattributed;
        }
        print!("{}", t.render());
        println!("(useful prefetches with an evicted tracking entry: {unattributed})");
    }
}
