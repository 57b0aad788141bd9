//! Proves the PPF steady-state hot path — inference, recording, demand
//! training, and eviction training, on a bare filter and through a whole
//! `Ppf<Spp>` trigger — performs zero heap allocations.
//!
//! A counting global allocator wraps the system allocator; after the filter
//! is constructed (arena + metadata tables are allocated once, up front),
//! the allocation count must not move while the filter processes traffic.
//! This is the acceptance test for the flattened-arena / inline-index
//! redesign: any reintroduced `Vec` in the per-candidate path fails here.
//!
//! The count is per thread, so the test harness and a concurrently running
//! test cannot move the window another test measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ppf::{Decision, FeatureInputs, Ppf, PpfConfig, PpfFilter};
use ppf_prefetchers::Spp;
use ppf_sim::{AccessContext, EvictionInfo, Prefetcher, PrefetchRequest};
use ppf_trace::{TraceBuilder, Workload};

struct CountingAllocator;

thread_local! {
    // Const-initialised and without `Drop`, so touching it from inside the
    // allocator neither allocates nor registers a destructor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations this thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

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

/// One full filter cycle: infer, record, then train the recorded block.
fn cycle(f: &mut PpfFilter, i: u64) {
    let inp = inputs(i);
    let addr = inp.trigger_addr + 64;
    let (d, sum, idxs) = f.infer_indexed(&inp);
    f.record_indexed(addr, inp, idxs, sum, d);
    match i % 3 {
        0 => f.train_on_demand(addr),
        1 => f.train_on_eviction(addr, false),
        _ => {
            if d == Decision::Reject {
                f.train_on_demand(addr);
            }
        }
    }
}

#[test]
fn steady_state_filter_path_never_allocates() {
    // Default config: event log disabled, paper-sized tables.
    let mut f = PpfFilter::new(PpfConfig::default());

    // Warm up: fill both metadata tables, trigger displacements and
    // recoveries, so the measured window sees the worst-case code paths
    // (table collisions, parked entries, negative training).
    for i in 0..50_000 {
        cycle(&mut f, i);
    }

    let before = allocations();
    for i in 50_000..150_000 {
        cycle(&mut f, i);
    }
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "steady-state inference/record/train path allocated {} time(s)",
        after - before
    );

    // Sanity: the filter actually did work in the measured window.
    assert!(f.stats.inferences >= 150_000);
    assert!(f.stats.positive_trains + f.stats.negative_trains > 0);

    // With decision telemetry recording (fixed-size contribution arrays and
    // margin histograms), the hot path must still not allocate. Without the
    // `observe` feature the enable is forced off, so this window also
    // proves the disabled hook costs nothing.
    f.set_telemetry_enabled(true);
    let before = allocations();
    for i in 150_000..250_000 {
        cycle(&mut f, i);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "telemetry-enabled filter path allocated {} time(s)",
        after - before
    );
    #[cfg(feature = "observe")]
    assert!(
        f.telemetry().accepts() + f.telemetry().rejects() >= 100_000,
        "telemetry should have recorded the measured window"
    );

    // Event-log path: the ring is preallocated at construction and
    // TrainingEvent carries an inline WeightList, so logging weight
    // snapshots on every train must not allocate either — including while
    // the ring wraps.
    let mut f = PpfFilter::new(PpfConfig { event_log_capacity: 64, ..PpfConfig::default() });
    for i in 0..20_000 {
        cycle(&mut f, i);
    }
    let before = allocations();
    for i in 20_000..60_000 {
        cycle(&mut f, i);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "event-log-enabled filter path allocated {} time(s)",
        after - before
    );
    assert_eq!(f.training_events().len(), 64, "the ring must have filled and wrapped");
}

/// The first `n` distinct-block demand accesses of one fig09 workload
/// (seed 42), as the L2 sees them.
fn demand_stream(workload: &str, n: usize) -> Vec<AccessContext> {
    let w = Workload::by_name(workload).expect("fig09 workload");
    let mut gen = TraceBuilder::new(w).seed(42).build();
    let mut out = Vec::with_capacity(n);
    let mut last_block = u64::MAX;
    while out.len() < n {
        let rec = gen.next_record();
        if rec.addr >> 6 == last_block {
            continue;
        }
        last_block = rec.addr >> 6;
        let cycle = out.len() as u64;
        let (pc, addr) = (rec.pc, rec.addr);
        out.push(AccessContext { pc, addr, is_store: false, l2_hit: false, cycle, core: 0 });
    }
    out
}

/// One whole PPF trigger per access, as the simulator drives it:
/// `on_demand_access` (demand training, the SPP lookahead, then scoring and
/// recording every candidate in order), a fill for every issued prefetch,
/// and, from a ring of recent prefetches, an unused eviction or a useful
/// demand on alternate triggers.
fn triggers(
    ppf: &mut Ppf<Spp>,
    stream: &[AccessContext],
    out: &mut Vec<PrefetchRequest>,
    ring: &mut [u64; 256],
    n0: usize,
) {
    for (k, ctx) in stream.iter().enumerate() {
        let n = n0 + k;
        out.clear();
        ppf.on_demand_access(ctx, out);
        for (j, req) in out.iter().enumerate() {
            ppf.on_prefetch_fill(req.addr, req.fill);
            ring[(n * 7 + j) % ring.len()] = req.addr;
        }
        let old = ring[(n * 13 + 5) % ring.len()];
        if n.is_multiple_of(2) {
            ppf.on_eviction(&EvictionInfo { addr: old, was_prefetch: true, was_used: false });
        } else {
            ppf.on_useful_prefetch(old);
        }
    }
}

#[test]
fn steady_state_ppf_trigger_never_allocates() {
    const WARM: usize = 50_000;
    const MEASURED: usize = 200_000;
    let stream = demand_stream("638.imagick_s", WARM + MEASURED);
    let mut ppf = Ppf::new(Spp::default());
    // Sized above SPP's 40-candidate cap, so no trigger grows it.
    let mut out = Vec::with_capacity(64);
    let mut ring = [0u64; 256];
    triggers(&mut ppf, &stream[..WARM], &mut out, &mut ring, 0);

    let inferences = ppf.filter_stats().inferences;
    let before = allocations();
    triggers(&mut ppf, &stream[WARM..], &mut out, &mut ring, WARM);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state Ppf<Spp> trigger allocated {} time(s)",
        after - before
    );

    // Sanity: the window scored candidates, issued prefetches, and trained.
    let s = ppf.filter_stats();
    assert!(s.inferences - inferences > MEASURED as u64, "{s:?}");
    assert!(ppf.stats.accepted > 0 && s.positive_trains > 0 && s.negative_trains > 0, "{s:?}");
}
