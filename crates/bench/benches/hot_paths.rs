//! Criterion micro-benchmarks for the filter's per-candidate path
//! (`infer_indexed` + `record_indexed`, `score_and_record` over a depth
//! window, and the one-pass feature index into the byte arena), the
//! struct-of-arrays cache tag scan (`probe` / `demand_access` / `fill`),
//! and the simulator's base tick.
//!
//! These isolate the data-layout work from whole-simulator noise: the
//! `perceptron` bench measures the legacy `infer` API, this one measures
//! the indexed path the simulator wrapper actually drives.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use ppf::{Decision, FeatureInputs, FeatureKind, Perceptron, PpfConfig, PpfFilter};
use ppf_sim::{
    Cache, CacheConfig, FillKind, NoPrefetcher, ReplacementPolicy, Simulation, SystemConfig,
};
use ppf_trace::SequentialStream;

fn inputs(i: u64) -> FeatureInputs {
    FeatureInputs {
        trigger_addr: 0x1000_0000 + i * 64,
        trigger_pc: 0x400000 + (i % 64) * 4,
        pc_1: 0x400100,
        pc_2: 0x400200,
        pc_3: 0x400300,
        signature: (i % 4096) as u16,
        last_signature: ((i + 7) % 4096) as u16,
        confidence: (i % 101) as u8,
        delta: ((i % 63) as i16) - 31,
        depth: (i % 16) as u8 + 1,
        source: (i % 3) as u8,
    }
}

fn bench_filter_fast_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("filter_fast_path");
    g.throughput(Throughput::Elements(1));
    g.bench_function("infer_indexed", |b| {
        let mut f = PpfFilter::new(PpfConfig::default());
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(f.infer_indexed(&inputs(i)))
        });
    });
    g.bench_function("infer_record_indexed", |b| {
        let mut f = PpfFilter::new(PpfConfig::default());
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let inp = inputs(i);
            let (d, sum, idxs) = f.infer_indexed(&inp);
            f.record_indexed(black_box(inp.trigger_addr + 64), inp, idxs, sum, d);
            black_box(d)
        });
    });
    g.finish();
}

/// The per-candidate steps the wrapper's depth window drives:
/// `score_and_record` over an 8-candidate window (the wrapper's depth
/// window; one element = one candidate scored, recorded and committed),
/// and the one-pass hash of the paper's nine features to arena positions.
fn bench_score_and_record(c: &mut Criterion) {
    let mut g = c.benchmark_group("score_and_record");
    g.throughput(Throughput::Elements(8));
    g.bench_function("8", |b| {
        let mut f = PpfFilter::new(PpfConfig::default());
        let mut i = 0u64;
        b.iter(|| {
            i += 8;
            let mut accepted = 0u32;
            f.score_and_record((i..i + 8).map(|n| (0x2000_0000 + n * 64, inputs(n))), |_, d| {
                accepted += u32::from(d != Decision::Reject)
            });
            black_box(accepted)
        });
    });
    g.finish();

    let mut g = c.benchmark_group("index");
    g.throughput(Throughput::Elements(1));
    let set = FeatureKind::default_set();
    let sizes: Vec<usize> = set.iter().map(|k| k.table_entries()).collect();
    let p = Perceptron::new(&sizes);
    g.bench_function("9_features", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(p.index(&set, &inputs(i)))
        });
    });
    g.finish();
}

fn l2_cache() -> Cache {
    Cache::new(&CacheConfig {
        size_bytes: 512 * 1024,
        ways: 8,
        latency: 14,
        mshrs: 16,
        policy: ReplacementPolicy::Lru,
    })
}

fn bench_cache_tag_scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache_tag_scan");
    g.throughput(Throughput::Elements(1));

    // Pre-fill a 512 KB / 8-way L2 with a strided working set twice its
    // capacity so probes split roughly evenly between hits and misses and
    // every set is full (worst-case tag scans).
    let mut warm = l2_cache();
    let lines = (warm.sets() * warm.ways()) as u64;
    for i in 0..lines * 2 {
        warm.fill(i, FillKind::Demand, false);
    }

    g.bench_function("probe", |b| {
        let cache = warm.clone();
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(0x9e37_79b9); // golden-ratio stride over blocks
            black_box(cache.probe(i % (lines * 4)))
        });
    });
    g.bench_function("demand_access", |b| {
        let mut cache = warm.clone();
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(0x9e37_79b9);
            black_box(cache.demand_access(i % (lines * 4), false))
        });
    });
    g.bench_function("fill_evict", |b| {
        let mut cache = warm.clone();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(cache.fill(i, FillKind::Prefetch, false))
        });
    });
    g.finish();
}

/// A single core under `NoPrefetcher` streaming over 4 blocks, which stay
/// L1-resident after the first touch, with `work` compute ops per memory
/// record: every executed tick is retire, dispatch and horizon work with no
/// miss, fill or prefetcher behind it.
fn floor_sim(work: u8) -> Simulation {
    let mut sim = Simulation::new(SystemConfig::single_core());
    sim.set_cycle_skip(true);
    let trace = SequentialStream::new(0x100_0000, 4, 0x40_0000, work);
    sim.add_core("floor", Box::new(trace), Box::new(NoPrefetcher));
    sim
}

/// The base tick's cost floor, per executed tick: `compute_floor` (60
/// compute ops per record, so nearly every dispatch slot is compute) and
/// `l1_hit_mix` (1 compute op per record, so half the slots are L1 hits).
/// The simulator is deterministic, so a probe run gives the ticks every
/// measured run executes, and `elem/s` reads as ticks per second.
fn bench_tick(c: &mut Criterion) {
    const WARMUP: u64 = 1_000;
    const MEASURE: u64 = 200_000;
    let mut g = c.benchmark_group("tick");
    for (name, work) in [("compute_floor", 60), ("l1_hit_mix", 1)] {
        let mut probe = floor_sim(work);
        probe.run(WARMUP, MEASURE);
        let ticks = probe.cycle_stats().ticks;
        eprintln!("[tick/{name}] {ticks} executed ticks per run");
        g.throughput(Throughput::Elements(ticks));
        g.bench_function(name, |b| {
            b.iter_batched(
                || floor_sim(work),
                |mut sim| sim.run(WARMUP, MEASURE),
                BatchSize::PerIteration,
            );
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_filter_fast_path,
    bench_score_and_record,
    bench_cache_tag_scan,
    bench_tick
);
criterion_main!(benches);
