//! Property tests for the heap-indexed MSHR file: the readiness heap must
//! behave exactly like the obvious scan-everything implementation under
//! arbitrary allocate / drain interleavings, and its cached `next_ready`
//! must be the exact earliest completion the simulator gates drains on.

use ppf_sim::mshr::{MissOrigin, MshrAlloc, MshrFile};
use proptest::collection::vec;
use proptest::prelude::*;

const CAPACITY: usize = 8;

/// One step of a random MSHR workout. Block numbers are drawn from a small
/// range so merges, re-allocations after drain, and capacity pressure all
/// actually happen.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Allocate `block` completing at `cycle + delay`.
    Alloc { block: u64, delay: u64 },
    /// Advance time by `step` and drain.
    Drain { step: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..2, 0u64..12, 0u64..60, 0u64..20).prop_map(|(kind, block, a, b)| match kind {
        0 => Op::Alloc { block, delay: a },
        _ => Op::Drain { step: b % 8 },
    })
}

/// Reference model: a plain map of block -> ready_at, drained by scanning.
#[derive(Default)]
struct Model {
    entries: std::collections::BTreeMap<u64, u64>,
}

impl Model {
    fn alloc(&mut self, block: u64, ready_at: u64) -> MshrAlloc {
        if let Some(&t) = self.entries.get(&block) {
            return MshrAlloc::Merged(t);
        }
        if self.entries.len() >= CAPACITY {
            return MshrAlloc::Full;
        }
        self.entries.insert(block, ready_at);
        MshrAlloc::Allocated
    }

    fn drain(&mut self, cycle: u64) -> Vec<(u64, u64)> {
        let ready: Vec<(u64, u64)> =
            self.entries.iter().filter(|(_, &t)| t <= cycle).map(|(&b, &t)| (b, t)).collect();
        for (b, _) in &ready {
            self.entries.remove(b);
        }
        ready // BTreeMap iteration is already block-number order
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under any interleaving of allocates and drains, the heap
    /// implementation returns exactly what the scan-based model returns:
    /// same allocation outcomes, same drained blocks in block-number order,
    /// same completion times, same occupancy, and a `next_ready` equal to
    /// the earliest completion the model holds.
    #[test]
    fn matches_scan_model(ops in vec(op_strategy(), 1..120)) {
        let mut file = MshrFile::new(CAPACITY);
        let mut model = Model::default();
        let mut cycle = 0u64;
        for op in ops {
            match op {
                Op::Alloc { block, delay } => {
                    let ready_at = cycle + delay;
                    let got = file.allocate(block, ready_at, MissOrigin::Demand, false, 0);
                    let want = model.alloc(block, ready_at);
                    prop_assert_eq!(got, want, "allocate({}, {})", block, ready_at);
                }
                Op::Drain { step } => {
                    cycle += step;
                    let got: Vec<(u64, u64)> = file
                        .drain_ready(cycle)
                        .into_iter()
                        .map(|(b, e)| (b, e.ready_at))
                        .collect();
                    let want = model.drain(cycle);
                    prop_assert_eq!(got, want, "drain at {}", cycle);
                }
            }
            prop_assert_eq!(file.len(), model.entries.len());
            prop_assert_eq!(file.is_full(), model.entries.len() >= CAPACITY);
            let earliest = model.entries.values().copied().min().unwrap_or(u64::MAX);
            prop_assert_eq!(file.next_ready(), earliest);
            prop_assert!(file.check_invariants().is_ok());
        }
        // Everything eventually drains, in block order.
        let rest: Vec<u64> = file.drain_ready(u64::MAX).into_iter().map(|(b, _)| b).collect();
        let want: Vec<u64> = model.drain(u64::MAX).into_iter().map(|(b, _)| b).collect();
        prop_assert_eq!(rest, want);
        prop_assert!(file.is_empty());
    }

    /// Nothing is ever drained before its completion time, and a drained
    /// batch is strictly sorted by block number (the deterministic order the
    /// simulator's fill loop depends on).
    #[test]
    fn drain_respects_readiness_and_order(
        blocks in vec((0u64..64, 1u64..200), 1..20),
        probe in 0u64..250,
    ) {
        let mut file = MshrFile::new(64);
        for &(block, ready_at) in &blocks {
            file.allocate(block, ready_at, MissOrigin::Prefetch, false, 0);
        }
        let drained = file.drain_ready(probe);
        for w in drained.windows(2) {
            prop_assert!(w[0].0 < w[1].0, "not sorted: {} then {}", w[0].0, w[1].0);
        }
        for (b, e) in &drained {
            prop_assert!(e.ready_at <= probe, "block {} drained {} early", b, e.ready_at - probe);
        }
        // Whatever remains really is not ready yet.
        prop_assert!(file.drain_ready(probe).is_empty());
    }

    /// `next_ready` is exact, so the simulator may skip a drain whenever it
    /// lies in the future: a drain just before it returns nothing, and a
    /// drain at it returns every entry completing then.
    #[test]
    fn next_ready_gates_the_drain(blocks in vec((0u64..64, 1u64..200), 1..20)) {
        let mut file = MshrFile::new(64);
        for &(block, ready_at) in &blocks {
            file.allocate(block, ready_at, MissOrigin::Demand, false, 0);
        }
        while !file.is_empty() {
            let t = file.next_ready();
            prop_assert!(file.drain_ready(t - 1).is_empty(), "drained before {}", t);
            let drained = file.drain_ready(t);
            prop_assert!(!drained.is_empty(), "nothing drained at next_ready {}", t);
            prop_assert!(drained.iter().all(|(_, e)| e.ready_at == t));
        }
        prop_assert_eq!(file.next_ready(), u64::MAX);
    }
}
