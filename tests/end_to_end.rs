//! Cross-crate integration tests: trace → simulator → prefetchers → PPF,
//! exercising the full pipeline end to end at a reduced scale.

use ppf_repro::filter::{Ppf, PpfConfig};
use ppf_repro::prefetchers::{Bop, DaAmpm, Spp};
use ppf_repro::sim::{run_single_core, NoPrefetcher, Prefetcher, Simulation, SystemConfig};
use ppf_repro::trace::{MixGenerator, Suite, TraceBuilder, Workload};

const WARMUP: u64 = 30_000;
const MEASURE: u64 = 150_000;

fn run(workload: &str, pf: Box<dyn Prefetcher>) -> ppf_repro::sim::SimReport {
    let w = Workload::by_name(workload).expect("workload exists");
    let trace = Box::new(TraceBuilder::new(w).seed(42).build());
    run_single_core(SystemConfig::single_core(), workload, trace, pf, WARMUP, MEASURE)
}

#[test]
fn spp_speeds_up_streaming() {
    // lbm needs a long enough region that its streams outgrow the caches.
    let w = Workload::by_name("619.lbm_s").unwrap();
    let mk = || Box::new(TraceBuilder::new(w.clone()).seed(42).build());
    let base = run_single_core(
        SystemConfig::single_core(), "lbm", mk(), Box::new(NoPrefetcher), 100_000, 500_000,
    );
    let spp = run_single_core(
        SystemConfig::single_core(), "lbm", mk(), Box::new(Spp::default()), 100_000, 500_000,
    );
    assert!(
        spp.ipc() > base.ipc() * 1.15,
        "SPP must speed up lbm streams: {} vs {}",
        spp.ipc(),
        base.ipc()
    );
}

#[test]
fn ppf_at_least_matches_spp_on_streams() {
    let spp = run("619.lbm_s", Box::new(Spp::default()));
    let ppf = run("619.lbm_s", Box::new(Ppf::new(Spp::default())));
    assert!(
        ppf.ipc() > spp.ipc() * 0.95,
        "PPF must not lose SPP's stream gains: {} vs {}",
        ppf.ipc(),
        spp.ipc()
    );
}

#[test]
fn all_prefetchers_run_every_memory_intensive_model() {
    for w in Workload::memory_intensive(Suite::Spec2017) {
        let schemes: Vec<Box<dyn Prefetcher>> = vec![
            Box::new(NoPrefetcher),
            Box::new(Bop::default()),
            Box::new(DaAmpm::default()),
            Box::new(Spp::default()),
            Box::new(Ppf::new(Spp::default())),
        ];
        for pf in schemes {
            let name = pf.name();
            let trace = Box::new(TraceBuilder::new(w.clone()).seed(1).shrink(2).build());
            let r = run_single_core(
                SystemConfig::single_core(),
                w.name(),
                trace,
                pf,
                10_000,
                40_000,
            );
            assert!(r.ipc() > 0.0, "{} under {name} produced zero IPC", w.name());
            assert!(r.cores[0].instructions >= 40_000);
        }
    }
}

#[test]
fn simulation_is_deterministic_end_to_end() {
    let a = run("623.xalancbmk_s", Box::new(Ppf::new(Spp::default())));
    let b = run("623.xalancbmk_s", Box::new(Ppf::new(Spp::default())));
    assert_eq!(a.cores[0].cycles, b.cores[0].cycles);
    assert_eq!(a.cores[0].prefetch.issued, b.cores[0].prefetch.issued);
    assert_eq!(a.dram.reads, b.dram.reads);
}

#[test]
fn ppf_filters_on_irregular_workloads() {
    // On an irregular workload the filter must actually reject a meaningful
    // share of the unthrottled candidate stream.
    let w = Workload::by_name("623.xalancbmk_s").unwrap();
    let trace = Box::new(TraceBuilder::new(w.clone()).seed(42).build());
    let mut sim = Simulation::new(SystemConfig::single_core());
    sim.add_core(w.name(), trace, Box::new(Ppf::new(Spp::default())));
    sim.run(WARMUP, MEASURE);
    let ppf = sim.prefetcher::<Ppf<Spp>>(0).expect("core 0 runs PPF over SPP");
    let stats = ppf.filter_stats();
    assert!(stats.inferences > 1000, "filter saw too few candidates");
    assert!(
        stats.rejected * 10 > stats.inferences,
        "filter should reject >10% on xalancbmk: {} of {}",
        stats.rejected,
        stats.inferences
    );
    assert!(stats.negative_trains > 100, "negative feedback never arrived");
}

#[test]
fn four_core_mix_preserves_per_core_progress() {
    let pool = Workload::memory_intensive(Suite::Spec2017);
    let mix = &MixGenerator::new(pool, 11).draw(1, 4)[0];
    let mut sim = Simulation::new(SystemConfig::multi_core(4));
    for (i, w) in mix.workloads.iter().enumerate() {
        let trace = Box::new(TraceBuilder::new(w.clone()).seed(i as u64).shrink(2).build());
        sim.add_core(w.name(), trace, Box::new(Ppf::new(Spp::default())));
    }
    let r = sim.run(10_000, 50_000);
    assert_eq!(r.cores.len(), 4);
    for c in &r.cores {
        assert!(c.instructions >= 50_000, "{} finished short", c.workload);
        assert!(c.ipc() > 0.0);
    }
}

#[test]
fn small_llc_config_runs() {
    let w = Workload::by_name("603.bwaves_s").unwrap();
    let trace = Box::new(TraceBuilder::new(w).seed(42).build());
    let r = run_single_core(
        SystemConfig::small_llc(),
        "bwaves",
        trace,
        Box::new(Ppf::new(Spp::default())),
        WARMUP,
        MEASURE,
    );
    assert!(r.ipc() > 0.0);
}

#[test]
fn low_bandwidth_hurts_memory_bound_ipc() {
    let w = Workload::by_name("619.lbm_s").unwrap();
    let normal = {
        let trace = Box::new(TraceBuilder::new(w.clone()).seed(42).build());
        run_single_core(SystemConfig::single_core(), "lbm", trace, Box::new(NoPrefetcher), WARMUP, MEASURE)
    };
    let low = {
        let trace = Box::new(TraceBuilder::new(w).seed(42).build());
        run_single_core(SystemConfig::low_bandwidth(), "lbm", trace, Box::new(NoPrefetcher), WARMUP, MEASURE)
    };
    assert!(
        low.ipc() < normal.ipc() * 0.8,
        "1/4 bandwidth must hurt lbm: {} vs {}",
        low.ipc(),
        normal.ipc()
    );
}

#[test]
fn event_log_feeds_analysis() {
    use ppf_repro::analysis::feature_correlations;
    use ppf_repro::sim::{AccessContext, PrefetchRequest};

    // Drive the filter directly (no simulator) with a planted pattern:
    // candidates at confidence >= 50 are always useful, others never.
    let cfg = PpfConfig { event_log_capacity: 10_000, ..PpfConfig::default() };
    let mut ppf = Ppf::with_config(Spp::default(), cfg);
    let mut out = Vec::new();
    let w = Workload::by_name("621.wrf_s").unwrap();
    let mut gen = TraceBuilder::new(w).seed(9).shrink(3).build();
    for i in 0..40_000u64 {
        let rec = gen.next_record();
        let ctx = AccessContext {
            pc: rec.pc,
            addr: rec.addr,
            is_store: false,
            l2_hit: i % 3 == 0,
            cycle: i,
            core: 0,
        };
        out.clear();
        ppf.on_demand_access(&ctx, &mut out);
        let _: &Vec<PrefetchRequest> = &out;
    }
    let events = ppf.filter().training_events();
    if !events.is_empty() {
        let cs = feature_correlations(ppf.filter().features(), events);
        assert_eq!(cs.len(), 9);
        assert!(cs.iter().all(|c| c.r.abs() <= 1.0));
    }
}
