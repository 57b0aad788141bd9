//! Golden pin of the simulator's executed ticks.
//!
//! The event-horizon run loop executes a tick only where some state can
//! change, so the number of executed ticks is a deterministic property of
//! the simulated machine, not of the host. Changes that make a tick cheaper
//! (the ROB ring, the one-step compute dispatch, the inline-gated tick
//! phases) must leave both the tick sequence and every simulated result
//! alone. Each cell here pins `cycle_stats()` and an FNV-1a of its
//! `SimReport` Debug text to constants recorded before those changes.
//!
//! The invariant checker adds executed ticks on its cadence (a skip never
//! jumps a check boundary), and its default cadence differs between debug
//! and release builds, so every test switches it off: the pinned ticks are
//! the ones a release run executes.

use ppf_repro::filter::Ppf;
use ppf_repro::prefetchers::Spp;
use ppf_repro::sim::{
    CycleStats, NoPrefetcher, Prefetcher, ProfConfig, Simulation, SystemConfig, TelemetryConfig,
};
use ppf_repro::trace::{MixGenerator, Suite, TraceBuilder, Workload};

const WARMUP: u64 = 20_000;
const MEASURE: u64 = 200_000;
const SEED: u64 = 42;

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Runs one cell with every path switch pinned; returns its cycle stats and
/// the FNV-1a of its report's Debug text.
fn run(workloads: &[Workload], mk: fn() -> Box<dyn Prefetcher>) -> (CycleStats, u64) {
    // Every test in this binary sets the same value, so the writes cannot
    // race a reader into a different period.
    std::env::set_var("PPF_CHECK_INVARIANTS", "0");
    let mut sim = Simulation::new(SystemConfig::multi_core(workloads.len()));
    sim.set_cycle_skip(true);
    sim.set_telemetry(TelemetryConfig::disabled());
    sim.set_profiling(ProfConfig::disabled());
    for (core, w) in workloads.iter().enumerate() {
        let trace = TraceBuilder::new(w.clone())
            .seed(SEED + core as u64)
            .build();
        sim.add_core(w.name(), Box::new(trace), mk());
    }
    let report = sim.run(WARMUP, MEASURE);
    (sim.cycle_stats(), fnv1a(&format!("{report:?}")))
}

fn nopf() -> Box<dyn Prefetcher> {
    Box::new(NoPrefetcher)
}

fn ppf_spp() -> Box<dyn Prefetcher> {
    Box::new(Ppf::new(Spp::default()))
}

fn stats(ticks: u64, skipped_cycles: u64) -> CycleStats {
    CycleStats {
        ticks,
        skipped_cycles,
        total_cycles: ticks + skipped_cycles,
    }
}

fn check(name: &str, mk: fn() -> Box<dyn Prefetcher>, want: (CycleStats, u64)) {
    let w = Workload::by_name(name).expect("known workload");
    let got = run(&[w], mk);
    assert_eq!(
        got, want,
        "{name}: ticks or report diverged from the golden"
    );
}

#[test]
fn bwaves_no_prefetcher() {
    check(
        "603.bwaves_s",
        nopf,
        (stats(56_096, 50_021), 0xf2d8_1cba_bdfd_2ac6),
    );
}

#[test]
fn bwaves_ppf_spp() {
    check(
        "603.bwaves_s",
        ppf_spp,
        (stats(55_422, 12_210), 0xa5d4_8dae_c3d4_d527),
    );
}

#[test]
fn mcf_no_prefetcher() {
    check(
        "605.mcf_s",
        nopf,
        (stats(78_336, 628_187), 0xca29_1b74_a7f4_c29c),
    );
}

#[test]
fn mcf_ppf_spp() {
    check(
        "605.mcf_s",
        ppf_spp,
        (stats(80_533, 629_097), 0x09ef_7ce7_ae71_e2d6),
    );
}

#[test]
fn xz_no_prefetcher() {
    check(
        "657.xz_s",
        nopf,
        (stats(81_505, 531_299), 0xb257_ded9_945d_c255),
    );
}

#[test]
fn xz_ppf_spp() {
    check(
        "657.xz_s",
        ppf_spp,
        (stats(81_598, 478_510), 0x5da1_57c6_2f74_a0a3),
    );
}

/// The first mix fig11 and perfbench's mix4-ppf draw (generator seed 1),
/// `Ppf<Spp>` on every core: shared-LLC drains, cross-core credits and
/// per-core wake gating all take part.
#[test]
fn first_mix_four_core_ppf_spp() {
    let mix = MixGenerator::new(Workload::memory_intensive(Suite::Spec2017), 1)
        .draw(1, 4)
        .remove(0);
    let got = run(&mix.workloads, ppf_spp);
    assert_eq!(
        got,
        (stats(1_728_709, 781_978), 0xa297_0170_e2d7_1a03),
        "4-core mix: ticks or report diverged from the golden"
    );
}
