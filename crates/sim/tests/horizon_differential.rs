//! Differential property tests for the event-horizon run loop: for any
//! workload shape, prefetcher behaviour, and core count, jumping dead
//! cycles must be *observationally identical* to ticking every cycle —
//! same [`SimReport`] bit for bit, same total cycle count, and same
//! telemetry interval snapshots. Only wall-clock time may differ.
//!
//! These are the executable form of the exactness argument in DESIGN.md
//! §5d: if skipping ever visited or missed a cycle that mattered, some
//! counter here would diverge.

use ppf_sim::{
    AccessContext, FillLevel, Prefetcher, PrefetchRequest, SimReport, Simulation, SystemConfig,
    TelemetryConfig,
};
use ppf_trace::{AccessPattern, Interleave, PointerChase, SequentialStream};
use proptest::prelude::*;

/// A randomized prefetcher (xorshift-driven): emits 0..=3 requests at
/// arbitrary nearby offsets and fill levels, so the differential check
/// covers prefetch-queue wakeups, MSHR contention, and redundancy drops —
/// not just the demand path.
struct ChaosPrefetcher {
    state: u64,
}

impl Prefetcher for ChaosPrefetcher {
    fn on_demand_access(&mut self, ctx: &AccessContext, out: &mut Vec<PrefetchRequest>) {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        let n = self.state % 4;
        for k in 0..n {
            let delta = ((self.state >> (8 + k * 8)) % 128) as i64 - 64;
            let target = ctx.addr as i64 + delta * 64;
            if target > 0 {
                let fill = if (self.state >> (3 + k)) & 1 == 1 {
                    FillLevel::L2
                } else {
                    FillLevel::Llc
                };
                out.push(PrefetchRequest::new(target as u64, fill));
            }
        }
    }

    fn name(&self) -> &'static str {
        "chaos"
    }
}

fn mixed_workload(seed: u64, streams: u64, work: u8) -> Box<dyn AccessPattern> {
    let mut parts: Vec<(Box<dyn AccessPattern>, u32)> = Vec::new();
    for i in 0..streams {
        parts.push((
            Box::new(SequentialStream::new(
                0x1000_0000 + i * 0x100_0000,
                4096,
                0x400000 + i * 64,
                work,
            )) as _,
            1,
        ));
    }
    parts
        .push((Box::new(PointerChase::new(0x9000_0000, 4096, 64, 0x410000, work, seed)) as _, 1));
    Box::new(Interleave::new(parts))
}

/// Builds an n-core simulation over per-core variants of the mixed
/// workload, with telemetry snapshotting enabled (a no-op compile-out when
/// the `observe` feature is absent — both modes then compare empty rings).
fn build(cores: usize, seed: u64, streams: u64, work: u8, skip: bool) -> Simulation {
    let cfg =
        if cores == 1 { SystemConfig::single_core() } else { SystemConfig::multi_core(cores) };
    let mut sim = Simulation::new(cfg);
    for c in 0..cores as u64 {
        sim.add_core(
            format!("chaos{c}"),
            mixed_workload(seed.wrapping_add(c.wrapping_mul(0x9e37_79b9)), streams, work),
            Box::new(ChaosPrefetcher { state: (seed ^ (c << 32)) | 1 }),
        );
    }
    sim.set_telemetry(TelemetryConfig { interval: 5_000 });
    sim.set_cycle_skip(skip);
    sim
}

/// Runs both modes and asserts every observable agrees; returns the pair of
/// reports so callers can add shape-specific checks.
fn assert_modes_agree(
    cores: usize,
    seed: u64,
    streams: u64,
    work: u8,
    warmup: u64,
    measure: u64,
) -> Result<(SimReport, SimReport), String> {
    let mut naive = build(cores, seed, streams, work, false);
    let mut skip = build(cores, seed, streams, work, true);
    let naive_report = naive.run(warmup, measure);
    let skip_report = skip.run(warmup, measure);

    prop_assert_eq!(&naive_report, &skip_report, "SimReports diverged (seed {})", seed);

    let n = naive.cycle_stats();
    let s = skip.cycle_stats();
    prop_assert_eq!(n.total_cycles, s.total_cycles, "cycle counts diverged");
    prop_assert_eq!(n.skipped_cycles, 0, "naive mode must tick every cycle");
    prop_assert_eq!(n.ticks, n.total_cycles);
    prop_assert_eq!(s.ticks + s.skipped_cycles, s.total_cycles, "skip accounting leak");
    prop_assert!(s.ticks <= n.ticks, "horizon mode executed more ticks than naive");

    // Interval snapshots are retirement-driven, so the horizon must never
    // shift a boundary: sequence, cycle stamps, and every counter agree.
    prop_assert_eq!(
        naive.all_interval_snapshots(),
        skip.all_interval_snapshots(),
        "telemetry snapshots diverged"
    );
    Ok((naive_report, skip_report))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Single core, arbitrary workload mix and chaotic prefetching: the two
    /// run loops are indistinguishable from the outside.
    #[test]
    fn single_core_skip_is_exact(seed in any::<u64>(), streams in 1u64..6, work in 0u8..40) {
        let (report, _) = assert_modes_agree(1, seed, streams, work, 1_000, 10_000)?;
        prop_assert!(report.cores[0].instructions >= 10_000);
    }

    /// Two cores sharing the LLC: cross-core wakeups (shared MSHR drains,
    /// credit returns) must not let a sleeping core miss a cycle it needed.
    #[test]
    fn two_core_skip_is_exact(seed in any::<u64>(), work in 0u8..24) {
        let (report, _) = assert_modes_agree(2, seed, 2, work, 1_000, 6_000)?;
        prop_assert_eq!(report.cores.len(), 2);
        for core in &report.cores {
            prop_assert!(core.instructions >= 6_000);
        }
    }

    /// Compute-free pointer chasing is the skip-friendliest shape (every
    /// load is a dependent long-latency miss); the horizon loop must both
    /// stay exact *and* actually skip there.
    #[test]
    fn dead_time_is_actually_skipped(seed in any::<u64>()) {
        let mut skip = build(1, seed, 1, 0, true);
        let mut naive = build(1, seed, 1, 0, false);
        let a = skip.run(1_000, 8_000);
        let b = naive.run(1_000, 8_000);
        prop_assert_eq!(a, b);
        let s = skip.cycle_stats();
        prop_assert!(
            s.skipped_cycles > 0,
            "pointer-chase run skipped nothing ({} ticks over {} cycles)",
            s.ticks,
            s.total_cycles
        );
    }
}
