//! The parallel harness must be a pure scheduling change: running a sweep
//! with N workers has to produce results byte-identical to the sequential
//! run, in the same order. These tests compare `Debug` renderings of the
//! full result structures, which cover every counter in every report.

use ppf_bench::sweep::Sweep;
use ppf_bench::{run_mix_suite_with, run_suite_with, RunScale};
use ppf_sim::SystemConfig;
use ppf_trace::{MixGenerator, Suite, Workload};

/// Small enough to keep the test quick, large enough for the prefetchers
/// and replacement state to diverge if a run were perturbed.
fn tiny() -> RunScale {
    RunScale { warmup: 2_000, measure: 10_000, mixes: 2 }
}

#[test]
fn suite_parallel_matches_sequential() {
    let workloads: Vec<Workload> = Workload::memory_intensive(Suite::Spec2017)
        .into_iter()
        .take(3)
        .collect();
    let seq = run_suite_with(
        &Sweep::ephemeral("det_suite_seq", 1),
        &workloads,
        SystemConfig::single_core,
        tiny(),
    );
    let par = run_suite_with(
        &Sweep::ephemeral("det_suite_par", 4),
        &workloads,
        SystemConfig::single_core,
        tiny(),
    );
    assert!(seq.failures.is_empty() && par.failures.is_empty());
    assert_eq!(format!("{:?}", seq.rows), format!("{:?}", par.rows));
}

#[test]
fn mix_suite_parallel_matches_sequential() {
    let pool = Workload::memory_intensive(Suite::Spec2017);
    let mixes = MixGenerator::new(pool, 7).draw(2, 2);
    let seq = run_mix_suite_with(&Sweep::ephemeral("det_mix_seq", 1), &mixes, 2, tiny());
    let par = run_mix_suite_with(&Sweep::ephemeral("det_mix_par", 4), &mixes, 2, tiny());
    assert!(seq.failures.is_empty() && par.failures.is_empty());
    assert_eq!(format!("{:?}", seq.runs), format!("{:?}", par.runs));
}
