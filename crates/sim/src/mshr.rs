//! Miss-status holding registers.
//!
//! An MSHR file tracks blocks with an outstanding fill. Demands merging into
//! an in-flight *prefetch* MSHR are how "late but useful" prefetches are
//! detected — the paper counts these toward prefetch usefulness because the
//! demand still waits less than a full memory round trip.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::fxhash::FxHashMap;

/// Who initiated the outstanding miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissOrigin {
    /// A demand load/store.
    Demand,
    /// A prefetch.
    Prefetch,
}

/// An outstanding miss.
#[derive(Debug, Clone)]
pub struct MshrEntry {
    /// Cycle the fill will complete.
    pub ready_at: u64,
    /// Demand or prefetch.
    pub origin: MissOrigin,
    /// ROB slots waiting on this fill, with the cycle each started waiting.
    pub waiters: Vec<(u64, u64)>,
    /// A demand merged into this entry while it was a prefetch.
    pub demand_merged: bool,
    /// Some merged request was a store (fill must be dirty).
    pub write: bool,
    /// This entry was counted against the owner's demand-load window.
    pub counted_demand: bool,
    /// Core that created the entry (for prefetch attribution at shared levels).
    pub owner: usize,
}

/// A bounded file of outstanding misses, keyed by block number.
///
/// Readiness is tracked with a min-heap of `(ready_at, block)` plus the
/// cached earliest completion, so the common per-cycle `drain_ready` call
/// with nothing ready is a single integer comparison instead of a scan over
/// every entry. A completion time never changes after allocation, so the
/// heap holds exactly one node per live entry, carrying its `ready_at`.
#[derive(Debug)]
pub struct MshrFile {
    capacity: usize,
    entries: FxHashMap<u64, MshrEntry>,
    ready_heap: BinaryHeap<Reverse<(u64, u64)>>,
    /// The earliest live `ready_at` (`u64::MAX` when the file is empty).
    next_ready: u64,
}

/// Outcome of trying to allocate an MSHR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrAlloc {
    /// New entry created.
    Allocated,
    /// Merged into an existing entry for the same block; the payload is the
    /// cycle the earlier request will complete.
    Merged(u64),
    /// File full; the request must retry (demand) or drop (prefetch).
    Full,
}

impl MshrFile {
    /// Creates a file with `capacity` registers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR file needs capacity");
        Self {
            capacity,
            entries: FxHashMap::with_capacity_and_hasher(capacity, Default::default()),
            ready_heap: BinaryHeap::with_capacity(capacity),
            next_ready: u64::MAX,
        }
    }

    /// Number of in-flight entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no miss is outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the file is at capacity.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Looks up an in-flight entry.
    pub fn get(&self, block: u64) -> Option<&MshrEntry> {
        self.entries.get(&block)
    }

    /// Mutable lookup of an in-flight entry.
    ///
    /// Callers may edit any field except `ready_at`: the readiness index
    /// keeps the completion time the entry was allocated with.
    pub fn get_mut(&mut self, block: u64) -> Option<&mut MshrEntry> {
        self.entries.get_mut(&block)
    }

    /// Tries to allocate (or merge) an entry for `block` completing at
    /// `ready_at`. On a merge the existing completion time wins and, if the
    /// newcomer is a demand merging into a prefetch, the entry is flagged.
    pub fn allocate(
        &mut self,
        block: u64,
        ready_at: u64,
        origin: MissOrigin,
        write: bool,
        owner: usize,
    ) -> MshrAlloc {
        if let Some(e) = self.entries.get_mut(&block) {
            if origin == MissOrigin::Demand && e.origin == MissOrigin::Prefetch {
                e.demand_merged = true;
            }
            e.write |= write;
            return MshrAlloc::Merged(e.ready_at);
        }
        if self.is_full() {
            return MshrAlloc::Full;
        }
        self.entries.insert(
            block,
            MshrEntry {
                ready_at,
                origin,
                waiters: Vec::new(),
                demand_merged: false,
                write,
                owner,
                counted_demand: false,
            },
        );
        self.ready_heap.push(Reverse((ready_at, block)));
        self.next_ready = self.next_ready.min(ready_at);
        MshrAlloc::Allocated
    }

    /// Registers a ROB waiter on an in-flight block, noting when the wait
    /// began (for latency accounting).
    ///
    /// # Panics
    ///
    /// Panics if the block has no entry (callers allocate first).
    pub fn add_waiter(&mut self, block: u64, seq: u64, since: u64) {
        self.entries.get_mut(&block).expect("waiter on missing MSHR").waiters.push((seq, since));
    }

    /// The earliest cycle any in-flight fill completes (`u64::MAX` when the
    /// file is empty). It is exact: [`MshrFile::drain_ready_into`] at
    /// `cycle` returns something if and only if `next_ready() <= cycle`. So
    /// it is both the file's term of the simulator's event horizon and the
    /// check the simulator gates each drain on.
    pub fn next_ready(&self) -> u64 {
        self.next_ready
    }

    /// Removes every entry whose fill completes at or before `cycle` into
    /// `out` (cleared first), in deterministic (block-number) order.
    ///
    /// The common nothing-ready call is a single comparison against the
    /// cached earliest completion. A ready batch is collected by peeking the
    /// heap before each pop and removing its entry directly — one hash
    /// removal per drained block.
    pub fn drain_ready_into(&mut self, cycle: u64, out: &mut Vec<(u64, MshrEntry)>) {
        out.clear();
        if self.next_ready > cycle {
            return;
        }
        while let Some(&Reverse((t, b))) = self.ready_heap.peek() {
            if t > cycle {
                break;
            }
            self.ready_heap.pop();
            let e = self.entries.remove(&b).expect("every heap node has a live entry");
            debug_assert_eq!(e.ready_at, t, "stale heap node for block {b:#x}");
            out.push((b, e));
        }
        self.next_ready =
            self.ready_heap.peek().map_or(u64::MAX, |&Reverse((t, _))| t);
        out.sort_unstable_by_key(|&(b, _)| b);
    }

    /// Allocating wrapper around [`MshrFile::drain_ready_into`] (tests and
    /// callers without a scratch buffer).
    pub fn drain_ready(&mut self, cycle: u64) -> Vec<(u64, MshrEntry)> {
        let mut out = Vec::new();
        self.drain_ready_into(cycle, &mut out);
        out
    }

    /// Validates the file's structural invariants, returning a description
    /// of the first violation found:
    ///
    /// - the number of live entries never exceeds the configured capacity,
    /// - `next_ready` is the earliest live completion time (late would make
    ///   [`MshrFile::drain_ready`] skip due fills, early would wake the
    ///   simulator for nothing),
    /// - every live entry has a heap node carrying its exact `ready_at`
    ///   (otherwise its fill would never be delivered), and the heap holds
    ///   nothing else.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.entries.len() > self.capacity {
            return Err(format!(
                "{} entries exceed capacity {}",
                self.entries.len(),
                self.capacity
            ));
        }
        for (&block, e) in &self.entries {
            if e.ready_at < self.next_ready {
                return Err(format!(
                    "block {block:#x} ready at {} but next_ready {} is later \
                     (drain would skip it)",
                    e.ready_at, self.next_ready
                ));
            }
            if !self.ready_heap.iter().any(|&Reverse((t, b))| b == block && t == e.ready_at) {
                return Err(format!(
                    "block {block:#x} (ready at {}) has no matching heap node",
                    e.ready_at
                ));
            }
        }
        if self.ready_heap.len() != self.entries.len() {
            return Err(format!(
                "{} heap nodes for {} entries",
                self.ready_heap.len(),
                self.entries.len()
            ));
        }
        let earliest = self.entries.values().map(|e| e.ready_at).min().unwrap_or(u64::MAX);
        if self.next_ready != earliest {
            return Err(format!(
                "next_ready {} is not the earliest completion {earliest}",
                self.next_ready
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_then_full() {
        let mut m = MshrFile::new(2);
        assert_eq!(m.allocate(1, 10, MissOrigin::Demand, false, 0), MshrAlloc::Allocated);
        assert_eq!(m.allocate(2, 11, MissOrigin::Demand, false, 0), MshrAlloc::Allocated);
        assert_eq!(m.allocate(3, 12, MissOrigin::Demand, false, 0), MshrAlloc::Full);
        assert!(m.is_full());
    }

    #[test]
    fn merge_keeps_original_time() {
        let mut m = MshrFile::new(2);
        m.allocate(5, 100, MissOrigin::Prefetch, false, 0);
        assert_eq!(m.allocate(5, 200, MissOrigin::Demand, true, 0), MshrAlloc::Merged(100));
        assert!(m.get(5).unwrap().demand_merged);
        assert!(m.get(5).unwrap().write);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn prefetch_merging_into_demand_not_flagged() {
        let mut m = MshrFile::new(2);
        m.allocate(5, 100, MissOrigin::Demand, false, 0);
        m.allocate(5, 120, MissOrigin::Prefetch, false, 0);
        assert!(!m.get(5).unwrap().demand_merged);
    }

    #[test]
    fn drain_ready_in_order() {
        let mut m = MshrFile::new(8);
        m.allocate(9, 50, MissOrigin::Demand, false, 0);
        m.allocate(3, 40, MissOrigin::Demand, false, 0);
        m.allocate(7, 60, MissOrigin::Demand, false, 0);
        let done = m.drain_ready(55);
        let blocks: Vec<u64> = done.iter().map(|(b, _)| *b).collect();
        assert_eq!(blocks, vec![3, 9]);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn next_ready_tracks_allocate_drain() {
        let mut m = MshrFile::new(4);
        assert_eq!(m.next_ready(), u64::MAX);
        m.allocate(1, 50, MissOrigin::Demand, false, 0);
        m.allocate(2, 30, MissOrigin::Demand, false, 0);
        assert_eq!(m.next_ready(), 30);
        // A merge keeps the earlier request's time.
        m.allocate(2, 10, MissOrigin::Demand, false, 0);
        assert_eq!(m.next_ready(), 30);
        assert!(m.drain_ready(29).is_empty());
        m.drain_ready(30);
        // Exact, not a lower bound: the next live completion.
        assert_eq!(m.next_ready(), 50);
        m.drain_ready(u64::MAX);
        assert_eq!(m.next_ready(), u64::MAX);
    }

    #[test]
    fn drain_ready_into_reuses_the_buffer() {
        let mut m = MshrFile::new(4);
        m.allocate(9, 5, MissOrigin::Demand, false, 0);
        m.allocate(3, 5, MissOrigin::Demand, false, 0);
        let mut out = vec![(999, MshrEntry {
            ready_at: 0,
            origin: MissOrigin::Demand,
            waiters: Vec::new(),
            demand_merged: false,
            write: false,
            counted_demand: false,
            owner: 0,
        })];
        m.drain_ready_into(5, &mut out);
        let blocks: Vec<u64> = out.iter().map(|(b, _)| *b).collect();
        assert_eq!(blocks, vec![3, 9], "stale buffer contents must be cleared");
        m.drain_ready_into(5, &mut out);
        assert!(out.is_empty(), "nothing-ready drain must clear the buffer too");
    }

    #[test]
    fn waiters_accumulate() {
        let mut m = MshrFile::new(2);
        m.allocate(4, 30, MissOrigin::Demand, false, 0);
        m.add_waiter(4, 11, 5);
        m.add_waiter(4, 12, 6);
        let done = m.drain_ready(30);
        assert_eq!(done[0].1.waiters, vec![(11, 5), (12, 6)]);
    }

    #[test]
    #[should_panic(expected = "waiter on missing MSHR")]
    fn waiter_requires_entry() {
        MshrFile::new(1).add_waiter(9, 0, 0);
    }

    #[test]
    fn invariants_hold_through_allocate_drain() {
        let mut m = MshrFile::new(4);
        m.allocate(1, 50, MissOrigin::Demand, false, 0);
        m.allocate(2, 500, MissOrigin::Prefetch, false, 0);
        m.allocate(3, 80, MissOrigin::Demand, true, 1);
        m.check_invariants().expect("after allocation");
        m.allocate(2, 60, MissOrigin::Demand, false, 0);
        m.check_invariants().expect("after a merge");
        m.drain_ready(100);
        m.check_invariants().expect("after drain");
        m.drain_ready(10_000);
        assert!(m.is_empty());
        m.check_invariants().expect("when empty");
    }

    #[test]
    fn invariants_catch_overfull_file() {
        let mut m = MshrFile::new(1);
        m.allocate(1, 10, MissOrigin::Demand, false, 0);
        // Corrupt: bypass allocate's capacity check.
        m.capacity = 0;
        let err = m.check_invariants().unwrap_err();
        assert!(err.contains("exceed capacity"), "{err}");
    }

    #[test]
    fn invariants_catch_late_next_ready() {
        let mut m = MshrFile::new(2);
        m.allocate(1, 10, MissOrigin::Demand, false, 0);
        // Corrupt: a late next_ready would make drain_ready skip the fill.
        m.next_ready = 20;
        let err = m.check_invariants().unwrap_err();
        assert!(err.contains("next_ready"), "{err}");
    }

    #[test]
    fn invariants_catch_early_next_ready() {
        let mut m = MshrFile::new(2);
        m.allocate(1, 10, MissOrigin::Demand, false, 0);
        // Corrupt: an early bound would gate a drain that finds nothing.
        m.next_ready = 5;
        let err = m.check_invariants().unwrap_err();
        assert!(err.contains("not the earliest completion"), "{err}");
    }

    #[test]
    fn invariants_catch_stale_heap_node() {
        let mut m = MshrFile::new(2);
        m.allocate(1, 10, MissOrigin::Demand, false, 0);
        // Corrupt: a second node for the same block.
        m.ready_heap.push(Reverse((5, 1)));
        let err = m.check_invariants().unwrap_err();
        assert!(err.contains("heap nodes for"), "{err}");
    }

    #[test]
    fn invariants_catch_missing_heap_node() {
        let mut m = MshrFile::new(2);
        m.allocate(1, 10, MissOrigin::Demand, false, 0);
        // Corrupt: drop the readiness index; the entry can never drain.
        // (next_ready keeps its valid value so only this check trips.)
        m.ready_heap.clear();
        let err = m.check_invariants().unwrap_err();
        assert!(err.contains("no matching heap node"), "{err}");
    }
}
