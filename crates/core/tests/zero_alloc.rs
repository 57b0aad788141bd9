//! Proves the PPF steady-state hot path — inference, recording, demand
//! training, and eviction training — performs zero heap allocations.
//!
//! A counting global allocator wraps the system allocator; after the filter
//! is constructed (arena + metadata tables are allocated once, up front),
//! the allocation count must not move while the filter processes traffic.
//! This is the acceptance test for the flattened-arena / inline-index
//! redesign: any reintroduced `Vec` in the per-candidate path fails here.
//!
//! The file holds a single `#[test]` so no concurrent test can allocate
//! while the steady-state window is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ppf::{Decision, FeatureInputs, PpfConfig, PpfFilter, MAX_BATCH};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for i in 50_000..150_000 {
        cycle(&mut f, i);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);

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
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for i in 150_000..250_000 {
        cycle(&mut f, i);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
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
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for i in 20_000..60_000 {
        cycle(&mut f, i);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "event-log-enabled filter path allocated {} time(s)",
        after - before
    );
    assert_eq!(f.training_events().len(), 64, "the ring must have filled and wrapped");

    // Streamed scoring path: score_and_record over windows of 9 and of
    // MAX_BATCH + 6 candidates, with recording displacement-training
    // mid-window, is allocation-free too.
    let mut f = PpfFilter::new(PpfConfig {
        prefetch_table_entries: 8, // tiny tables force mid-window training
        reject_table_entries: 8,
        ..PpfConfig::default()
    });
    let batched_cycles = |f: &mut PpfFilter, lo: u64, hi: u64| {
        let mut accepted = [false; MAX_BATCH + 6];
        let mut base = lo;
        let mut long = false;
        while base < hi {
            let n = if long { MAX_BATCH as u64 + 6 } else { 9 }.min(hi - base);
            long = !long;
            let window = (base..base + n).map(|i| (inputs(i).trigger_addr + 64, inputs(i)));
            f.score_and_record(window, |j, d| accepted[j] = d != Decision::Reject);
            for j in (0..n).step_by(2) {
                if accepted[j as usize] {
                    f.train_on_eviction(inputs(base + j).trigger_addr + 64, false);
                }
            }
            base += n;
        }
    };
    batched_cycles(&mut f, 0, 20_000);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    batched_cycles(&mut f, 20_000, 60_000);
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "streamed scoring path allocated {} time(s)",
        after - before
    );
    assert!(f.stats.replacement_trains > 0, "tiny tables must have displacement-trained");
}
