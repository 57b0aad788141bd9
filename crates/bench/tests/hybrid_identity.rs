//! The single-member `Hybrid` identity at fig09 scale: for every fig09
//! workload at `RunScale::quick()`, PPF filtering SPP through a
//! one-member `Hybrid` produces the same `SimReport`, field for field, as
//! PPF filtering the bare SPP. `crates/core/tests/hybrid_equivalence.rs`
//! checks the same identity on scripted access streams.

use ppf::Ppf;
use ppf_bench::RunScale;
use ppf_prefetchers::{Hybrid, LookaheadSource, Spp};
use ppf_sim::{Prefetcher, SimReport, Simulation, SystemConfig};
use ppf_trace::{TraceBuilder, Workload};

/// Runs `workload` the way fig09 does (single core, trace seed 42).
fn run(workload: &Workload, prefetcher: Box<dyn Prefetcher>, scale: RunScale) -> SimReport {
    let trace = Box::new(TraceBuilder::new(workload.clone()).seed(42).build());
    let mut sim = Simulation::new(SystemConfig::single_core());
    sim.add_core(workload.name(), trace, prefetcher);
    sim.run(scale.warmup, scale.measure)
}

#[test]
fn fig09_ppf_reports_match_single_member_hybrid() {
    let scale = RunScale::quick();
    let workloads = Workload::spec2017();
    assert_eq!(workloads.len(), 20, "fig09 runs all 20 SPEC CPU 2017 models");
    for w in &workloads {
        let bare = run(w, Box::new(Ppf::new(Spp::default())), scale);
        let members: Vec<Box<dyn LookaheadSource>> = vec![Box::new(Spp::default())];
        let wrapped = run(w, Box::new(Ppf::new(Hybrid::new(members))), scale);
        assert_eq!(bare, wrapped, "{}: single-member Hybrid is not an identity", w.name());
    }
}
