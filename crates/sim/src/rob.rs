//! A minimal reorder buffer: in-order dispatch, out-of-order completion,
//! in-order retirement.
//!
//! Entries are identified by a monotonically increasing sequence number so
//! MSHR waiter lists can wake them when fills arrive. The buffer is a fixed
//! power-of-two ring of completion cycles, so dispatch, retirement and the
//! waiter lookups are a mask and an index, never a reallocation.

/// Completion marker for an entry still waiting on memory.
pub const PENDING: u64 = u64::MAX;

/// The reorder buffer of one core.
#[derive(Debug, Clone)]
pub struct Rob {
    /// Completion cycle per slot; `capacity.next_power_of_two()` slots.
    slots: Box<[u64]>,
    /// Slot of the oldest entry.
    head: usize,
    /// In-flight entries.
    len: usize,
    /// Sequence number of the oldest entry.
    head_seq: u64,
    capacity: usize,
}

impl Rob {
    /// Creates a ROB with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ROB needs capacity");
        let slots = vec![0; capacity.next_power_of_two()].into_boxed_slice();
        Self { slots, head: 0, len: 0, head_seq: 0, capacity }
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// Slot of the entry `offset` places behind the head.
    #[inline]
    fn slot(&self, offset: usize) -> usize {
        (self.head + offset) & self.mask()
    }

    /// Whether another instruction can be dispatched.
    pub fn has_space(&self) -> bool {
        self.len < self.capacity
    }

    /// Number of entries that can still be dispatched.
    pub fn free(&self) -> usize {
        self.capacity - self.len
    }

    /// Number of in-flight entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the ROB is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dispatches an instruction completing at `complete_cycle` (use
    /// [`PENDING`] for memory ops waiting on a fill). Returns its sequence
    /// number.
    ///
    /// # Panics
    ///
    /// Panics if the ROB is full.
    pub fn push(&mut self, complete_cycle: u64) -> u64 {
        assert!(self.has_space(), "ROB overflow");
        let seq = self.head_seq + self.len as u64;
        let slot = self.slot(self.len);
        self.slots[slot] = complete_cycle;
        self.len += 1;
        seq
    }

    /// Dispatches `n` instructions that all complete at `complete_cycle`:
    /// the same entries as `n` calls of [`Rob::push`].
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` entries are free.
    pub fn push_run(&mut self, complete_cycle: u64, n: usize) {
        assert!(n <= self.free(), "ROB overflow");
        let first = self.slot(self.len);
        let contiguous = n.min(self.slots.len() - first);
        self.slots[first..first + contiguous].fill(complete_cycle);
        self.slots[..n - contiguous].fill(complete_cycle);
        self.len += n;
    }

    /// Slot of `seq` while it is in flight; `None` once retired or before
    /// it is dispatched.
    fn slot_of(&self, seq: u64) -> Option<usize> {
        let offset = seq.checked_sub(self.head_seq)?;
        (offset < self.len as u64).then(|| self.slot(offset as usize))
    }

    /// Marks a pending entry complete at `cycle`. Ignores already-retired
    /// sequence numbers (a fill can arrive after a flushed/retired entry in
    /// degenerate cases).
    pub fn complete(&mut self, seq: u64, cycle: u64) {
        if let Some(slot) = self.slot_of(seq) {
            self.slots[slot] = cycle;
        }
    }

    /// Returns the completion cycle recorded for `seq`, if it is still in
    /// flight (`None` once retired).
    pub fn completion_of(&self, seq: u64) -> Option<u64> {
        self.slot_of(seq).map(|slot| self.slots[slot])
    }

    /// The completion cycle recorded at the head entry ([`PENDING`] while it
    /// waits on memory), or `None` when the ROB is empty. The head bounds
    /// in-order retirement, so this is the retire term of the simulator's
    /// event horizon: nothing can retire before the head's completion cycle.
    pub fn head_completion(&self) -> Option<u64> {
        (self.len > 0).then(|| self.slots[self.head])
    }

    /// Retires up to `width` completed instructions from the head at `cycle`;
    /// returns how many retired.
    pub fn retire(&mut self, cycle: u64, width: u32) -> u32 {
        let mut n = 0;
        while n < width && self.len > 0 && self.slots[self.head] <= cycle {
            self.head = (self.head + 1) & self.mask();
            self.len -= 1;
            n += 1;
        }
        self.head_seq += u64::from(n);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inorder_retire_blocks_on_pending() {
        let mut rob = Rob::new(4);
        rob.push(5);
        let seq = rob.push(PENDING);
        rob.push(5);
        // At cycle 10: first retires, second blocks the third.
        assert_eq!(rob.retire(10, 4), 1);
        rob.complete(seq, 9);
        assert_eq!(rob.retire(10, 4), 2);
        assert!(rob.is_empty());
    }

    #[test]
    fn retire_width_respected() {
        let mut rob = Rob::new(8);
        for _ in 0..8 {
            rob.push(0);
        }
        assert_eq!(rob.retire(1, 4), 4);
        assert_eq!(rob.retire(1, 4), 4);
    }

    #[test]
    fn head_completion_tracks_the_front_entry() {
        let mut rob = Rob::new(4);
        assert_eq!(rob.head_completion(), None);
        rob.push(7);
        rob.push(PENDING);
        assert_eq!(rob.head_completion(), Some(7));
        rob.retire(7, 1);
        assert_eq!(rob.head_completion(), Some(PENDING));
    }

    #[test]
    fn seq_numbers_are_stable_across_retirement() {
        let mut rob = Rob::new(4);
        rob.push(0);
        rob.push(0);
        rob.retire(1, 2);
        let seq = rob.push(PENDING);
        assert_eq!(seq, 2);
        rob.complete(seq, 7);
        assert_eq!(rob.completion_of(seq), Some(7));
    }

    #[test]
    fn complete_on_retired_seq_is_ignored() {
        let mut rob = Rob::new(4);
        let seq = rob.push(0);
        rob.retire(1, 1);
        rob.complete(seq, 100); // must not panic or corrupt
        assert!(rob.is_empty());
    }

    #[test]
    fn completion_of_future_retired() {
        let mut rob = Rob::new(2);
        let s = rob.push(3);
        assert_eq!(rob.completion_of(s), Some(3));
        rob.retire(3, 1);
        assert_eq!(rob.completion_of(s), None);
    }

    #[test]
    #[should_panic(expected = "ROB overflow")]
    fn overflow_panics() {
        let mut rob = Rob::new(1);
        rob.push(0);
        rob.push(0);
    }

    #[test]
    fn push_run_matches_pushes_across_the_wrap() {
        // Capacity 6 rounds up to 8 slots; start the run near the end.
        let mut rob = Rob::new(6);
        for _ in 0..5 {
            rob.push(0);
        }
        rob.retire(0, 5);
        rob.push_run(9, 4);
        assert_eq!(rob.len(), 4);
        assert_eq!(rob.free(), 2);
        for seq in 5..9 {
            assert_eq!(rob.completion_of(seq), Some(9));
        }
        assert_eq!(rob.completion_of(9), None);
        assert_eq!(rob.retire(8, 4), 0);
        assert_eq!(rob.retire(9, 4), 4);
    }

    #[test]
    #[should_panic(expected = "ROB overflow")]
    fn push_run_overflow_panics() {
        let mut rob = Rob::new(4);
        rob.push(0);
        rob.push_run(0, 4);
    }

    #[test]
    fn space_accounting() {
        let mut rob = Rob::new(2);
        assert!(rob.has_space());
        rob.push(0);
        rob.push(0);
        assert!(!rob.has_space());
        rob.retire(0, 1);
        assert!(rob.has_space());
        assert_eq!(rob.len(), 1);
    }
}
