//! The Prefetch Table and Reject Table (paper Sec 3.1, Tables 2–3).
//!
//! Both are 1,024-entry direct-mapped structures indexed by ten bits of the
//! prefetch target's block address, tagged with six more. Each entry stores
//! the metadata needed to *re-index* the perceptron weights when feedback
//! arrives (a demand access to the block, or its eviction). The Reject
//! Table additionally lets PPF recover from false negatives: a demand hit
//! on a rejected candidate trains the filter upward.

use crate::features::IndexList;

/// One entry's stored metadata (cf. paper Table 2; 85 bits in hardware).
///
/// Hardware re-derives the weight indices from the stored trigger
/// metadata (PC, address, signature, delta, confidence, depth). The
/// simulator stores the derived indices instead, plus the two metadata
/// fields it reads back, so an entry is 56 bytes rather than a copy of
/// every feature input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableEntry {
    /// The prefetch target's block number (hardware reconstructs this from
    /// index+tag; the simulator stores it directly).
    pub target_block: u64,
    /// Weight-arena positions computed at inference time. Training reuses
    /// these directly instead of rehashing the features — an inline `Copy`
    /// array, so recording an entry never touches the heap.
    pub indices: IndexList,
    /// Perceptron sum at inference time.
    pub sum: i32,
    /// Tag (6 bits of the block address above the index).
    pub tag: u16,
    /// The entry already produced a useful-demand training event.
    pub useful: bool,
    /// The perceptron's decision when the entry was recorded (`true` =
    /// prefetched; always `true` in the Prefetch Table, `false` in Reject).
    pub perc_decision: bool,
    /// Lookahead depth of the candidate (`FeatureInputs::depth`), for the
    /// per-depth usefulness statistics.
    pub depth: u8,
    /// Originating scheme (`FeatureInputs::source`), for routing useful
    /// and fill credit in a hybrid source.
    pub source: u8,
}

/// A direct-mapped metadata table keyed by prefetch-target block number.
#[derive(Debug, Clone)]
pub struct MetaTable {
    entries: Vec<Option<TableEntry>>,
    index_bits: u32,
}

impl MetaTable {
    /// Creates a table with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two(), "table size must be a power of two");
        Self { entries: vec![None; entries], index_bits: entries.trailing_zeros() }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no slots (never for a constructed table).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops every entry, keeping the geometry. This is the checkpoint
    /// barrier's table reset (see `PpfFilter::checkpoint_barrier`): a
    /// filter restored from a checkpoint necessarily starts with empty
    /// metadata tables, so a live filter clears its own at the same
    /// boundary to keep recovery bit-exact.
    pub fn clear(&mut self) {
        self.entries.iter_mut().for_each(|e| *e = None);
    }

    fn index(&self, block: u64) -> usize {
        (block as usize) & (self.entries.len() - 1)
    }

    fn tag(&self, block: u64) -> u16 {
        ((block >> self.index_bits) & 0x3F) as u16
    }

    /// Records a candidate, replacing whatever aliased there. Returns the
    /// displaced entry if it belonged to a *different* block (callers can
    /// treat an unused displaced prefetch as negative feedback).
    ///
    /// A re-record of a block whose entry is still pending (not yet useful)
    /// keeps the existing entry untouched: lookahead re-suggests in-flight
    /// targets every trigger, but the hardware tracks the prefetch that was
    /// actually sent — its indices, depth and source are what training
    /// and credit attribution must see.
    #[inline]
    pub fn record(
        &mut self,
        block: u64,
        depth: u8,
        source: u8,
        indices: IndexList,
        sum: i32,
        perc_decision: bool,
    ) -> Option<TableEntry> {
        let (idx, tag) = (self.index(block), self.tag(block));
        let slot = &mut self.entries[idx];
        if slot.as_ref().is_some_and(|e| e.tag == tag && !e.useful) {
            return None;
        }
        slot.replace(TableEntry {
            target_block: block,
            indices,
            sum,
            tag,
            useful: false,
            perc_decision,
            depth,
            source,
        })
        .filter(|e| e.tag != tag)
    }

    /// Looks up the entry for `block` (tag must match).
    pub fn lookup(&self, block: u64) -> Option<&TableEntry> {
        let idx = self.index(block);
        self.entries[idx].as_ref().filter(|e| e.tag == self.tag(block))
    }

    /// Mutable lookup.
    pub fn lookup_mut(&mut self, block: u64) -> Option<&mut TableEntry> {
        let idx = self.index(block);
        let tag = self.tag(block);
        self.entries[idx].as_mut().filter(|e| e.tag == tag)
    }

    /// Removes and returns the entry for `block` if it matches.
    pub fn take(&mut self, block: u64) -> Option<TableEntry> {
        let idx = self.index(block);
        let tag = self.tag(block);
        if self.entries[idx].as_ref().is_some_and(|e| e.tag == tag) {
            self.entries[idx].take()
        } else {
            None
        }
    }

    /// Number of currently valid entries.
    pub fn occupancy(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }
}

/// The paper's Table 2: bits per Prefetch-Table entry.
pub fn prefetch_table_entry_bits() -> u64 {
    // Valid(1) + Tag(6) + Useful(1) + PercDecision(1)
    // + PC(12) + Address(24) + CurrSignature(10) + PC_i hash(12)
    // + Delta(7) + Confidence(7) + Depth(4)
    1 + 6 + 1 + 1 + 12 + 24 + 10 + 12 + 7 + 7 + 4
}

/// Reject-Table entries drop the Useful bit (paper footnote 2).
pub fn reject_table_entry_bits() -> u64 {
    prefetch_table_entry_bits() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records `block` at depth `depth` with empty indices.
    fn record(t: &mut MetaTable, block: u64, depth: u8, sum: i32, perc: bool) -> Option<TableEntry> {
        t.record(block, depth, 0, IndexList::new(), sum, perc)
    }

    #[test]
    fn record_then_lookup() {
        let mut t = MetaTable::new(1024);
        record(&mut t, 0xABCD, 1, 7, true);
        let e = t.lookup(0xABCD).expect("present");
        assert_eq!(e.sum, 7);
        assert!(e.perc_decision);
        assert!(!e.useful);
    }

    #[test]
    fn tag_mismatch_misses() {
        let mut t = MetaTable::new(1024);
        record(&mut t, 0xABCD, 1, 0, true);
        // Same index (low 10 bits), different tag bits above.
        let alias = 0xABCD ^ (1 << 12);
        assert!(t.lookup(alias).is_none());
    }

    #[test]
    fn aliasing_replaces() {
        let mut t = MetaTable::new(1024);
        record(&mut t, 0xABCD, 1, 1, true);
        let alias = 0xABCD ^ (1 << 10);
        record(&mut t, alias, 2, 2, false);
        assert!(t.lookup(0xABCD).is_none(), "older entry evicted by alias");
        assert_eq!(t.lookup(alias).unwrap().sum, 2);
    }

    #[test]
    fn pending_entry_survives_re_record() {
        let mut t = MetaTable::new(1024);
        record(&mut t, 0xABCD, 1, 1, true);
        // Re-suggestion of the same in-flight block: the original issued
        // prefetch's metadata must be preserved.
        assert!(record(&mut t, 0xABCD, 2, 9, true).is_none());
        assert_eq!(t.lookup(0xABCD).unwrap().sum, 1);
        assert_eq!(t.lookup(0xABCD).unwrap().depth, 1);
        // After the entry proves useful, a fresh prefetch generation may
        // replace it.
        t.lookup_mut(0xABCD).unwrap().useful = true;
        record(&mut t, 0xABCD, 3, 7, true);
        let e = t.lookup(0xABCD).unwrap();
        assert_eq!(e.sum, 7);
        assert!(!e.useful);
    }

    #[test]
    fn take_removes() {
        let mut t = MetaTable::new(64);
        record(&mut t, 5, 1, 3, true);
        assert!(t.take(5).is_some());
        assert!(t.lookup(5).is_none());
        assert!(t.take(5).is_none());
    }

    #[test]
    fn lookup_mut_allows_marking_useful() {
        let mut t = MetaTable::new(64);
        record(&mut t, 9, 1, 0, true);
        t.lookup_mut(9).unwrap().useful = true;
        assert!(t.lookup(9).unwrap().useful);
    }

    #[test]
    fn occupancy_counts() {
        let mut t = MetaTable::new(64);
        assert_eq!(t.occupancy(), 0);
        record(&mut t, 1, 1, 0, true);
        record(&mut t, 2, 2, 0, true);
        assert_eq!(t.occupancy(), 2);
    }

    #[test]
    fn slot_is_56_bytes() {
        // The empty-slot `None` fits in a bool niche, so a 1,024-entry
        // table is 56 KiB.
        assert_eq!(std::mem::size_of::<Option<TableEntry>>(), 56);
    }

    #[test]
    fn entry_bit_budget_matches_paper() {
        assert_eq!(prefetch_table_entry_bits(), 85);
        assert_eq!(reject_table_entry_bits(), 84);
        // Table 3 rows: 1024 × 85 and 1024 × 84.
        assert_eq!(1024 * prefetch_table_entry_bits(), 87_040);
        assert_eq!(1024 * reject_table_entry_bits(), 86_016);
    }
}
