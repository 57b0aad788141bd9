//! Criterion micro-benchmarks for the filter's per-candidate path
//! (`infer_indexed` + `record_indexed`, `score_and_record` over a depth
//! window, and the one-pass feature index into the byte arena) and the
//! struct-of-arrays cache tag scan (`probe` / `demand_access` / `fill`).
//!
//! These isolate the data-layout work from whole-simulator noise: the
//! `perceptron` bench measures the legacy `infer` API, this one measures
//! the indexed path the simulator wrapper actually drives.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use ppf::{Decision, FeatureInputs, FeatureKind, Perceptron, PpfConfig, PpfFilter};
use ppf_sim::{Cache, CacheConfig, FillKind, ReplacementPolicy};

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

criterion_group!(benches, bench_filter_fast_path, bench_score_and_record, bench_cache_tag_scan);
criterion_main!(benches);
