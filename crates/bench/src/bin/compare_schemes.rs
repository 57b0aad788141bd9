//! Developer tool: compare all schemes on a handful of workloads with rich
//! per-run diagnostics (cycles, misses, prefetch stats, DRAM behaviour).
//!
//! ```sh
//! cargo run --release -p ppf-bench --bin compare_schemes [app...]
//! ```

use ppf_bench::{run_single, RunScale, Scheme};
use ppf_sim::SystemConfig;
use ppf_trace::Workload;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let default = ["603.bwaves_s", "605.mcf_s", "623.xalancbmk_s", "619.lbm_s", "607.cactuBSSN_s", "649.fotonik3d_s"];
    let apps: Vec<&str> = if args.is_empty() { default.to_vec() } else { args.iter().map(|s| s.as_str()).collect() };
    println!("{:<18} {:>8} {:>8} {:>8} {:>8} {:>8}", "app", "none", "bop", "ampm", "spp", "ppf");
    for app in &apps {
        let app: &str = app;
        let mut row = format!("{:<18}", app);
        let mut base_ipc = 0.0;
        let w = Workload::by_name(app).unwrap();
        for (which, scheme) in Scheme::all().into_iter().enumerate() {
            let t0 = std::time::Instant::now();
            let r = run_single(SystemConfig::single_core(), &w, scheme, RunScale::default_scale());
            let ipc = r.ipc();
            if which == 0 { base_ipc = ipc; }
            let c = &r.cores[0];
            row += &format!(" {:>8.3}", ipc / base_ipc);
            eprintln!("  [{app} {which}] ipc={ipc:.3} cyc={} l2miss={} llcacc={} llcmiss={} pf_iss={} pf_useful={} late={} latewait={:.0} wait={:.0} acc={:.2} dram[r={} w={} rowhit={:.2} bus={}] {}ms",
                c.cycles, c.l2.demand_misses(), r.llc.demand_accesses, r.llc.demand_misses(), c.prefetch.issued, c.prefetch.useful, c.prefetch.late, c.prefetch.avg_late_wait(), c.avg_load_miss_wait(),
                c.prefetch.accuracy(), r.dram.reads, r.dram.writes, r.dram.row_hit_rate(), r.dram.bus_busy_cycles, t0.elapsed().as_millis());
        }
        println!("{row}");
    }
}
