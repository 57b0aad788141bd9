//! The parallel harness must be a pure scheduling change: running a sweep
//! with N workers has to produce results byte-identical to the sequential
//! run, in the same order. These tests compare `Debug` renderings of the
//! full result structures, which cover every counter in every report.

use ppf::PpfConfig;
use ppf_bench::sweep::Sweep;
use ppf_bench::{run_mix_suite, run_suite, RunScale, Scheme, Variant};
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
    // The paper's schemes, then a baseline and two PPF configurations.
    let suites: [Vec<Variant>; 2] = [
        Scheme::all().map(Variant::from).to_vec(),
        vec![
            Scheme::Baseline.into(),
            Variant::ppf("tau0_-10", PpfConfig { tau_hi: 0, tau_lo: -10, ..PpfConfig::default() }),
            Variant::ppf("reject1", PpfConfig { reject_table_entries: 1, ..PpfConfig::default() }),
        ],
    ];
    for variants in &suites {
        let seq = run_suite(
            &Sweep::ephemeral("det_suite_seq", 1),
            SystemConfig::single_core(),
            &workloads,
            variants,
            tiny(),
        );
        let par = run_suite(
            &Sweep::ephemeral("det_suite_par", 4),
            SystemConfig::single_core(),
            &workloads,
            variants,
            tiny(),
        );
        assert!(seq.failures.is_empty() && par.failures.is_empty());
        assert_eq!(format!("{:?}", seq.rows), format!("{:?}", par.rows));
    }
}

#[test]
fn mix_suite_parallel_matches_sequential() {
    let pool = Workload::memory_intensive(Suite::Spec2017);
    let mixes = MixGenerator::new(pool, 7).draw(2, 2);
    let seq = run_mix_suite(&Sweep::ephemeral("det_mix_seq", 1), &mixes, 2, tiny());
    let par = run_mix_suite(&Sweep::ephemeral("det_mix_par", 4), &mixes, 2, tiny());
    assert!(seq.failures.is_empty() && par.failures.is_empty());
    assert_eq!(format!("{:?}", seq.runs), format!("{:?}", par.runs));
}
