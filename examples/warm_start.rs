//! Warm-starting PPF from saved weights: train on one run, snapshot the
//! perceptron, and reload it for a later run so the filter skips its
//! cold-start window.
//!
//! ```sh
//! cargo run --release --example warm_start
//! ```

use ppf_repro::filter::{Ppf, PpfConfig};
use ppf_repro::prefetchers::Spp;
use ppf_repro::sim::{Simulation, SystemConfig};
use ppf_repro::trace::{TraceBuilder, Workload};

fn run(workload: &Workload, weights: Option<&[u8]>, measure: u64) -> (f64, u64, Vec<u8>) {
    let mut ppf = Ppf::with_config(Spp::default(), PpfConfig::default());
    if let Some(w) = weights {
        ppf.filter_mut().load_weights(w).expect("snapshot matches feature set");
    }
    let trace = Box::new(TraceBuilder::new(workload.clone()).seed(42).build());
    let mut sim = Simulation::new(SystemConfig::single_core());
    sim.add_core(workload.name(), trace, Box::new(ppf));
    let r = sim.run(50_000, measure);
    // Read the trained filter back by its concrete type.
    let ppf = sim.prefetcher::<Ppf<Spp>>(0).expect("core 0 runs PPF over SPP");
    (r.ipc(), ppf.filter_stats().rejected, ppf.filter().save_weights())
}

fn main() {
    let workload = Workload::by_name("623.xalancbmk_s").expect("known workload");

    // Long training run; snapshot the trained weights.
    let (_, _, snapshot) = run(&workload, None, 2_000_000);
    let nonzero = snapshot.iter().filter(|&&b| b as i8 != 0).count();
    println!(
        "trained snapshot: {} weights, {} non-zero ({:.1}%)\n",
        snapshot.len(),
        nonzero,
        100.0 * nonzero as f64 / snapshot.len() as f64
    );

    // Short runs: cold vs warm-started.
    let (cold_ipc, cold_rej, _) = run(&workload, None, 300_000);
    let (warm_ipc, warm_rej, _) = run(&workload, Some(&snapshot), 300_000);
    println!("short-run comparison on {}:", workload.name());
    println!("  cold start : ipc {cold_ipc:.3}, {cold_rej} candidates rejected");
    println!("  warm start : ipc {warm_ipc:.3}, {warm_rej} candidates rejected");
    println!("\nThe warm filter starts rejecting immediately instead of paying");
    println!("the cold-start window — useful for short-lived workloads and for");
    println!("studying trained weights offline (paper Sec 5.5).");
}
