//! Developer tool: compare all schemes on a handful of workloads with rich
//! per-run diagnostics (cycles, misses, prefetch stats, DRAM behaviour).
//!
//! ```sh
//! cargo run --release -p ppf-bench --bin compare_schemes [app...]
//! ```

use ppf_bench::sweep::Sweep;
use ppf_bench::{run_suite, RunScale, Scheme, Variant};
use ppf_sim::SystemConfig;
use ppf_trace::Workload;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let default = ["603.bwaves_s", "605.mcf_s", "623.xalancbmk_s", "619.lbm_s", "607.cactuBSSN_s", "649.fotonik3d_s"];
    let apps: Vec<&str> = if args.is_empty() { default.to_vec() } else { args.iter().map(|s| s.as_str()).collect() };
    println!("{:<18} {:>8} {:>8} {:>8} {:>8} {:>8}", "app", "none", "bop", "ampm", "spp", "ppf");
    let workloads: Vec<Workload> = apps
        .iter()
        .map(|app| {
            Workload::by_name(app).unwrap_or_else(|| {
                eprintln!("unknown workload {app}");
                std::process::exit(2);
            })
        })
        .collect();
    let variants = Scheme::all().map(Variant::from);
    let sweep = Sweep::from_args("compare_schemes");
    let scale = RunScale::default_scale();
    for row in run_suite(&sweep, SystemConfig::single_core(), &workloads, &variants, scale).rows {
        let mut line = format!("{:<18}", row.app);
        for (v, r) in &row.reports {
            let c = &r.cores[0];
            line += &format!(" {:>8.3}", row.speedup(v.label()));
            eprintln!("  [{} {}] ipc={:.3} cyc={} l2miss={} llcacc={} llcmiss={} pf_iss={} pf_useful={} late={} latewait={:.0} wait={:.0} acc={:.2} dram[r={} w={} rowhit={:.2} bus={}]",
                row.app, v.label(), r.ipc(), c.cycles, c.l2.demand_misses(), r.llc.demand_accesses, r.llc.demand_misses(), c.prefetch.issued, c.prefetch.useful, c.prefetch.late, c.prefetch.avg_late_wait(), c.avg_load_miss_wait(),
                c.prefetch.accuracy(), r.dram.reads, r.dram.writes, r.dram.row_hit_rate(), r.dram.bus_busy_cycles);
        }
        println!("{line}");
    }
}
