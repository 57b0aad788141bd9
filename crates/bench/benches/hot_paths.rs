//! Criterion micro-benchmarks for the two hot paths rebuilt in the
//! zero-allocation PR: the flattened-arena filter inference fast path
//! (`infer_indexed` + `record_indexed`, no heap traffic) and the
//! struct-of-arrays cache tag scan (`probe` / `demand_access` / `fill`).
//!
//! These isolate the data-layout work from whole-simulator noise: the
//! `perceptron` bench measures the legacy `infer` API, this one measures
//! the indexed path the simulator wrapper actually drives.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use ppf::{FeatureInputs, IndexList, Perceptron, PpfConfig, PpfFilter};
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

/// Batched scoring over the paper-sized weight arena at the depth
/// windows that matter: 1 (degenerate/scalar-equivalent), 8 (the wrapper's
/// depth window), and 40 (SPP's max_candidates — a full lookahead
/// burst in one call).
fn bench_sum_batch(c: &mut Criterion) {
    let mut g = c.benchmark_group("sum_batch");
    // The paper's Table 3 perceptron block.
    let mut p = Perceptron::new(&[4096, 4096, 4096, 4096, 2048, 2048, 1024, 1024, 128]);
    for i in 0..5000usize {
        let locals: Vec<usize> = (0..9).map(|f| i.wrapping_mul(f + 3)).collect();
        p.train(&locals, i % 3 != 0);
    }
    let lists: Vec<IndexList> = (0..64u32)
        .map(|c| {
            p.globalize(
                &(0..9)
                    .map(|f| c.wrapping_mul(2654435761).wrapping_add(f * 40503))
                    .collect::<IndexList>(),
            )
        })
        .collect();
    for n in [1usize, 8, 40] {
        g.throughput(Throughput::Elements(n as u64));
        g.bench_function(format!("batch_{n}"), |b| {
            let mut out = [0i32; 64];
            b.iter(|| {
                p.sum_batch(black_box(&lists[..n]), &mut out[..n]);
                black_box(out[n - 1])
            });
        });
    }
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

criterion_group!(benches, bench_filter_fast_path, bench_sum_batch, bench_cache_tag_scan);
criterion_main!(benches);
