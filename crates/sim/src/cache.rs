//! Set-associative cache with LRU replacement and prefetch metadata.
//!
//! Each line carries the two bits the paper's training loop depends on:
//! whether the line was brought in by a prefetch, and whether a demand has
//! used it since. Evictions report both so the prefetch filter can learn
//! from useless prefetches (negative training) and the stats can attribute
//! useful ones.

use crate::config::{CacheConfig, ReplacementPolicy};

/// How a line got into the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FillKind {
    /// Demand miss fill.
    Demand,
    /// Prefetch fill.
    Prefetch,
}

/// Result of a demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// The block was present.
    pub hit: bool,
    /// This was the *first* demand touch of a prefetched line — the event
    /// that makes a prefetch "useful" (paper Sec 3.1 training).
    pub first_use_of_prefetch: bool,
}

/// A victim evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Block number of the victim.
    pub block: u64,
    /// Victim was dirty (needs writeback).
    pub dirty: bool,
    /// Victim was brought in by a prefetch.
    pub was_prefetch: bool,
    /// Victim was demanded at least once while resident.
    pub was_used: bool,
}

/// Sentinel tag marking an invalid way in the SoA tag array. Real block
/// numbers are byte addresses shifted right by the 6-bit block offset, so
/// they can never reach `u64::MAX`.
const INVALID_TAG: u64 = u64::MAX;

/// Per-line metadata bits, packed so the non-tag state of a line is one
/// byte (plus the LRU stamp and SRRIP RRPV kept in their own arrays).
const FLAG_DIRTY: u8 = 1 << 0;
const FLAG_PREFETCHED: u8 = 1 << 1;
const FLAG_USED: u8 = 1 << 2;

/// Per-cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand lookups.
    pub demand_accesses: u64,
    /// Demand lookups that hit.
    pub demand_hits: u64,
    /// Lines filled by demand misses.
    pub demand_fills: u64,
    /// Lines filled by prefetches.
    pub prefetch_fills: u64,
    /// Prefetched lines that saw at least one demand hit.
    pub useful_prefetches: u64,
    /// Prefetched lines evicted without any demand hit.
    pub useless_prefetches: u64,
}

impl CacheStats {
    /// Demand misses.
    pub fn demand_misses(&self) -> u64 {
        self.demand_accesses - self.demand_hits
    }

    /// Fraction of filled prefetches that were used (accuracy at this level).
    pub fn prefetch_accuracy(&self) -> f64 {
        let judged = self.useful_prefetches + self.useless_prefetches;
        if judged == 0 {
            return 0.0;
        }
        self.useful_prefetches as f64 / judged as f64
    }

    /// Resets all counters (used at the warmup/measurement boundary).
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// A set-associative, write-back, LRU cache.
///
/// Line state is stored struct-of-arrays: the tags of a set are contiguous
/// `u64`s (with `u64::MAX` marking empty ways), so the hit scans in
/// [`Cache::probe`] / [`Cache::demand_hit`] / [`Cache::fill`] walk a packed
/// tag slice instead of striding over full line structs. Stamps, flag bits
/// and RRPVs live in parallel arrays touched only after a way is chosen.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: usize,
    ways: usize,
    /// Tag per way, [`INVALID_TAG`] when the way is empty.
    tags: Vec<u64>,
    /// LRU stamp per way.
    stamps: Vec<u64>,
    /// `FLAG_*` bits per way.
    flags: Vec<u8>,
    /// 2-bit re-reference prediction value per way (SRRIP only).
    rrpvs: Vec<u8>,
    clock: u64,
    policy: ReplacementPolicy,
    /// Counter block (see [`CacheStats`]).
    pub stats: CacheStats,
}

impl Cache {
    /// Builds a cache from a configuration.
    pub fn new(cfg: &CacheConfig) -> Self {
        let sets = cfg.sets();
        let ways = sets * cfg.ways;
        Self {
            sets,
            ways: cfg.ways,
            tags: vec![INVALID_TAG; ways],
            stamps: vec![0; ways],
            flags: vec![0; ways],
            rrpvs: vec![0; ways],
            clock: 0,
            policy: cfg.policy,
            stats: CacheStats::default(),
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    fn set_range(&self, block: u64) -> std::ops::Range<usize> {
        let set = (block as usize) & (self.sets - 1);
        set * self.ways..(set + 1) * self.ways
    }

    /// Scans one set's packed tag slice for `block`, returning the absolute
    /// way index. Validity is implicit: empty ways hold [`INVALID_TAG`],
    /// which no real block number equals.
    #[inline]
    fn find_way(&self, block: u64) -> Option<usize> {
        debug_assert_ne!(block, INVALID_TAG, "block number collides with the invalid sentinel");
        let range = self.set_range(block);
        let start = range.start;
        self.tags[range].iter().position(|&t| t == block).map(|i| start + i)
    }

    /// Marks a hit on way `i`: LRU stamp, RRPV reset, dirty/used bits.
    /// Returns whether this was the first demand use of a prefetched line.
    #[inline]
    fn touch_hit(&mut self, i: usize, clock: u64, is_write: bool) -> bool {
        self.stamps[i] = clock;
        self.rrpvs[i] = 0;
        if is_write {
            self.flags[i] |= FLAG_DIRTY;
        }
        let first_use = self.flags[i] & (FLAG_PREFETCHED | FLAG_USED) == FLAG_PREFETCHED;
        self.flags[i] |= FLAG_USED;
        first_use
    }

    /// Non-updating presence check.
    pub fn probe(&self, block: u64) -> bool {
        self.find_way(block).is_some()
    }

    /// Demand access (load or store). Updates LRU, prefetch-use metadata and
    /// demand counters. Does **not** fill on miss — the caller drives fills
    /// when the data arrives.
    pub fn demand_access(&mut self, block: u64, is_write: bool) -> AccessOutcome {
        self.clock += 1;
        self.stats.demand_accesses += 1;
        let clock = self.clock;
        if let Some(i) = self.find_way(block) {
            let first_use = self.touch_hit(i, clock, is_write);
            if first_use {
                self.stats.useful_prefetches += 1;
            }
            self.stats.demand_hits += 1;
            return AccessOutcome { hit: true, first_use_of_prefetch: first_use };
        }
        AccessOutcome { hit: false, first_use_of_prefetch: false }
    }

    /// Demand access that only commits when the block is resident: on a hit
    /// it behaves exactly like [`Cache::demand_access`] (clock, LRU stamp,
    /// prefetch-use metadata, counters) and returns the outcome; on a miss it
    /// mutates nothing and returns `None`, letting callers run resource
    /// checks before accounting the miss. Replaces a `probe` +
    /// `demand_access` pair, scanning the set once instead of twice.
    pub fn demand_hit(&mut self, block: u64, is_write: bool) -> Option<AccessOutcome> {
        let clock = self.clock + 1;
        let i = self.find_way(block)?;
        let first_use = self.touch_hit(i, clock, is_write);
        self.clock = clock;
        self.stats.demand_accesses += 1;
        self.stats.demand_hits += 1;
        if first_use {
            self.stats.useful_prefetches += 1;
        }
        Some(AccessOutcome { hit: true, first_use_of_prefetch: first_use })
    }

    /// Inserts `block`, evicting the LRU victim if the set is full.
    ///
    /// If the block is already resident (e.g. a prefetch raced a demand
    /// fill), the existing line is refreshed instead and no victim results.
    pub fn fill(&mut self, block: u64, kind: FillKind, dirty: bool) -> Option<Evicted> {
        self.clock += 1;
        let clock = self.clock;
        match kind {
            FillKind::Demand => self.stats.demand_fills += 1,
            FillKind::Prefetch => self.stats.prefetch_fills += 1,
        }
        // Already present: refresh.
        if let Some(i) = self.find_way(block) {
            self.stamps[i] = clock;
            if dirty {
                self.flags[i] |= FLAG_DIRTY;
            }
            if kind == FillKind::Demand {
                // A demand fill over a prefetched line counts as a use.
                if self.flags[i] & (FLAG_PREFETCHED | FLAG_USED) == FLAG_PREFETCHED {
                    self.stats.useful_prefetches += 1;
                }
                self.flags[i] |= FLAG_USED;
            }
            return None;
        }

        // Pick a victim: invalid way first, else per the policy. The scans
        // walk the packed per-set tag / stamp / RRPV slices.
        let range = self.set_range(block);
        let start = range.start;
        let victim_idx = match self.tags[range.clone()].iter().position(|&t| t == INVALID_TAG) {
            Some(i) => start + i,
            None => match self.policy {
                ReplacementPolicy::Lru => {
                    start
                        + self.stamps[range]
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, &s)| s)
                            .map(|(i, _)| i)
                            .expect("set has ways")
                }
                ReplacementPolicy::Srrip => loop {
                    // Evict the first line predicted for a distant
                    // re-reference; age everyone until one appears.
                    if let Some(i) = self.rrpvs[range.clone()].iter().position(|&r| r >= 3) {
                        break start + i;
                    }
                    for r in &mut self.rrpvs[range.clone()] {
                        *r = (*r + 1).min(3);
                    }
                },
            },
        };
        let victim_tag = self.tags[victim_idx];
        let victim_flags = self.flags[victim_idx];
        let evicted = (victim_tag != INVALID_TAG).then_some(Evicted {
            block: victim_tag,
            dirty: victim_flags & FLAG_DIRTY != 0,
            was_prefetch: victim_flags & FLAG_PREFETCHED != 0,
            was_used: victim_flags & FLAG_USED != 0,
        });
        if let Some(e) = &evicted {
            if e.was_prefetch && !e.was_used {
                self.stats.useless_prefetches += 1;
            }
        }
        self.tags[victim_idx] = block;
        self.stamps[victim_idx] = clock;
        // A demand fill starts life "used"; a prefetch fill must earn it.
        let mut flags = if kind == FillKind::Prefetch { FLAG_PREFETCHED } else { FLAG_USED };
        if dirty {
            flags |= FLAG_DIRTY;
        }
        self.flags[victim_idx] = flags;
        self.rrpvs[victim_idx] = 2; // SRRIP: insert with a long re-reference prediction
        evicted
    }

    /// Refreshes a block's LRU position without touching demand counters or
    /// prefetch-use metadata (used when a prefetch reads a lower level).
    /// Returns whether the block was present.
    pub fn touch(&mut self, block: u64) -> bool {
        self.clock += 1;
        let clock = self.clock;
        if let Some(i) = self.find_way(block) {
            self.stamps[i] = clock;
            return true;
        }
        false
    }

    /// Invalidates a block if present, returning whether it was dirty.
    pub fn invalidate(&mut self, block: u64) -> Option<bool> {
        if let Some(i) = self.find_way(block) {
            self.tags[i] = INVALID_TAG;
            return Some(self.flags[i] & FLAG_DIRTY != 0);
        }
        None
    }

    /// Number of valid lines (for tests / occupancy metrics).
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID_TAG).count()
    }

    /// Validates the cache's structural invariants, returning a description
    /// of the first violation found:
    ///
    /// - a valid tag appears at most once per set (duplicates would make hit
    ///   results depend on scan order),
    /// - every valid tag indexes to the set that holds it,
    /// - RRPV values stay within SRRIP's 2-bit range (≤ 3),
    /// - per-way flags only use defined bits,
    /// - no recency stamp runs ahead of the cache clock.
    pub fn check_invariants(&self) -> Result<(), String> {
        const KNOWN_FLAGS: u8 = FLAG_DIRTY | FLAG_PREFETCHED | FLAG_USED;
        for set in 0..self.sets {
            let base = set * self.ways;
            for way in 0..self.ways {
                let i = base + way;
                let tag = self.tags[i];
                if tag == INVALID_TAG {
                    continue;
                }
                let home = (tag as usize) & (self.sets - 1);
                if home != set {
                    return Err(format!(
                        "block {tag:#x} stored in set {set} but indexes to set {home}"
                    ));
                }
                if self.tags[base + way + 1..base + self.ways].contains(&tag) {
                    return Err(format!("block {tag:#x} duplicated within set {set}"));
                }
                if self.rrpvs[i] > 3 {
                    return Err(format!(
                        "rrpv {} out of 2-bit range at set {set} way {way}",
                        self.rrpvs[i]
                    ));
                }
                if self.flags[i] & !KNOWN_FLAGS != 0 {
                    return Err(format!(
                        "undefined flag bits {:#04x} at set {set} way {way}",
                        self.flags[i]
                    ));
                }
                if self.stamps[i] > self.clock {
                    return Err(format!(
                        "stamp {} ahead of cache clock {} at set {set} way {way}",
                        self.stamps[i], self.clock
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B = 512B.
        Cache::new(&CacheConfig {
            size_bytes: 512,
            ways: 2,
            latency: 1,
            mshrs: 4,
            policy: ReplacementPolicy::Lru,
        })
    }

    fn tiny_srrip() -> Cache {
        Cache::new(&CacheConfig {
            size_bytes: 1024,
            ways: 4,
            latency: 1,
            mshrs: 4,
            policy: ReplacementPolicy::Srrip,
        })
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert!(!c.demand_access(100, false).hit);
        c.fill(100, FillKind::Demand, false);
        assert!(c.demand_access(100, false).hit);
        assert_eq!(c.stats.demand_hits, 1);
        assert_eq!(c.stats.demand_misses(), 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        // Blocks 0, 4, 8 map to set 0 (4 sets).
        c.fill(0, FillKind::Demand, false);
        c.fill(4, FillKind::Demand, false);
        // Touch 0 so 4 becomes LRU.
        c.demand_access(0, false);
        let ev = c.fill(8, FillKind::Demand, false).expect("eviction");
        assert_eq!(ev.block, 4);
        assert!(c.probe(0) && c.probe(8) && !c.probe(4));
    }

    #[test]
    fn prefetch_use_tracking() {
        let mut c = tiny();
        c.fill(7, FillKind::Prefetch, false);
        let out = c.demand_access(7, false);
        assert!(out.hit && out.first_use_of_prefetch);
        // Second touch is not a "first use".
        assert!(!c.demand_access(7, false).first_use_of_prefetch);
        assert_eq!(c.stats.useful_prefetches, 1);
    }

    #[test]
    fn useless_prefetch_detected_on_eviction() {
        let mut c = tiny();
        c.fill(0, FillKind::Prefetch, false);
        c.fill(4, FillKind::Demand, false);
        let ev = c.fill(8, FillKind::Demand, false).expect("eviction");
        assert!(ev.was_prefetch && !ev.was_used);
        assert_eq!(c.stats.useless_prefetches, 1);
    }

    #[test]
    fn refill_of_resident_block_evicts_nothing() {
        let mut c = tiny();
        c.fill(3, FillKind::Demand, false);
        assert!(c.fill(3, FillKind::Prefetch, false).is_none());
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn demand_fill_over_prefetched_line_counts_use() {
        let mut c = tiny();
        c.fill(3, FillKind::Prefetch, false);
        c.fill(3, FillKind::Demand, false);
        assert_eq!(c.stats.useful_prefetches, 1);
    }

    #[test]
    fn demand_hit_matches_demand_access_on_hit_and_is_inert_on_miss() {
        let mut a = tiny();
        let mut b = tiny();
        for c in [&mut a, &mut b] {
            c.fill(7, FillKind::Prefetch, false);
        }
        // Hit path: identical outcome, stats, and LRU state.
        let via_hit = a.demand_hit(7, true).expect("resident");
        let via_access = b.demand_access(7, true);
        assert_eq!(via_hit, via_access);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.clock, b.clock);
        // Miss path: no mutation at all.
        let stats_before = a.stats;
        let clock_before = a.clock;
        assert!(a.demand_hit(99, false).is_none());
        assert_eq!(a.stats, stats_before);
        assert_eq!(a.clock, clock_before);
    }

    #[test]
    fn write_sets_dirty_and_eviction_reports_it() {
        let mut c = tiny();
        c.fill(0, FillKind::Demand, false);
        c.demand_access(0, true);
        c.fill(4, FillKind::Demand, false);
        let ev = c.fill(8, FillKind::Demand, false).expect("eviction");
        // LRU is block 0 (4 was filled later). It was written.
        assert_eq!(ev.block, 0);
        assert!(ev.dirty);
    }

    #[test]
    fn invalidate_removes() {
        let mut c = tiny();
        c.fill(9, FillKind::Demand, true);
        assert_eq!(c.invalidate(9), Some(true));
        assert!(!c.probe(9));
        assert_eq!(c.invalidate(9), None);
    }

    #[test]
    fn stats_reset() {
        let mut c = tiny();
        c.demand_access(1, false);
        c.fill(1, FillKind::Demand, false);
        c.stats.reset();
        assert_eq!(c.stats, CacheStats::default());
    }

    #[test]
    fn occupancy_bounded_by_capacity() {
        let mut c = tiny();
        for b in 0..100 {
            c.fill(b, FillKind::Demand, false);
        }
        assert_eq!(c.occupancy(), 8);
    }

    #[test]
    fn srrip_protects_reused_lines_from_scans() {
        // 4 sets x 4 ways; blocks congruent mod 4 share a set.
        let mut c = tiny_srrip();
        // A hot line, touched repeatedly.
        c.fill(0, FillKind::Demand, false);
        for _ in 0..4 {
            c.demand_access(0, false);
        }
        // A scan of single-use blocks through the same set.
        for i in 1..=8u64 {
            c.fill(i * 4, FillKind::Demand, false);
        }
        assert!(c.probe(0), "SRRIP must keep the reused line through a scan");

        // LRU, by contrast, evicts the hot line.
        let mut lru = Cache::new(&CacheConfig {
            size_bytes: 1024,
            ways: 4,
            latency: 1,
            mshrs: 4,
            policy: ReplacementPolicy::Lru,
        });
        lru.fill(0, FillKind::Demand, false);
        for _ in 0..4 {
            lru.demand_access(0, false);
        }
        for i in 1..=8u64 {
            lru.fill(i * 4, FillKind::Demand, false);
        }
        // The hot line was MRU, so under LRU it survives one scan lap of 4
        // ways only if fewer than 4 scan blocks arrived — with 8 it is gone.
        assert!(!lru.probe(0), "LRU cannot resist the scan");
    }

    #[test]
    fn srrip_still_evicts_something() {
        let mut c = tiny_srrip();
        for i in 0..100u64 {
            c.fill(i * 4, FillKind::Demand, false);
        }
        assert!(c.occupancy() <= 16);
    }

    #[test]
    fn invariants_hold_after_heavy_traffic() {
        let mut c = tiny_srrip();
        for i in 0..500u64 {
            c.demand_access(i % 37, i % 3 == 0);
            c.fill(i % 61, if i % 2 == 0 { FillKind::Demand } else { FillKind::Prefetch }, false);
            if i % 7 == 0 {
                c.invalidate(i % 61);
            }
        }
        c.check_invariants().expect("normal traffic preserves invariants");
    }

    #[test]
    fn invariants_catch_duplicate_tag() {
        let mut c = tiny();
        c.fill(0, FillKind::Demand, false);
        // Corrupt: copy the tag into the set's other way.
        c.tags[1] = c.tags[0];
        let err = c.check_invariants().unwrap_err();
        assert!(err.contains("duplicated"), "{err}");
    }

    #[test]
    fn invariants_catch_misplaced_tag() {
        let mut c = tiny();
        c.fill(0, FillKind::Demand, false);
        // Corrupt: block 1 indexes to set 1 but sits in set 0.
        c.tags[0] = 1;
        let err = c.check_invariants().unwrap_err();
        assert!(err.contains("indexes to set"), "{err}");
    }

    #[test]
    fn invariants_catch_rrpv_overflow() {
        let mut c = tiny_srrip();
        c.fill(0, FillKind::Demand, false);
        c.rrpvs[0] = 4;
        let err = c.check_invariants().unwrap_err();
        assert!(err.contains("rrpv"), "{err}");
    }

    #[test]
    fn invariants_catch_future_stamp() {
        let mut c = tiny();
        c.fill(0, FillKind::Demand, false);
        c.stamps[0] = c.clock + 10;
        let err = c.check_invariants().unwrap_err();
        assert!(err.contains("ahead of cache clock"), "{err}");
    }

    #[test]
    fn reset_zeroes_every_cache_counter() {
        // Full struct literal on purpose — a new field fails to compile here
        // until this test (and the warmup reset path) are revisited.
        let mut s = CacheStats {
            demand_accesses: 1,
            demand_hits: 2,
            demand_fills: 3,
            prefetch_fills: 4,
            useful_prefetches: 5,
            useless_prefetches: 6,
        };
        s.reset();
        assert_eq!(s, CacheStats::default());
    }

    #[test]
    fn accuracy_metric() {
        let mut s = CacheStats { useful_prefetches: 3, useless_prefetches: 1, ..Default::default() };
        assert!((s.prefetch_accuracy() - 0.75).abs() < 1e-12);
        s.useful_prefetches = 0;
        s.useless_prefetches = 0;
        assert_eq!(s.prefetch_accuracy(), 0.0);
    }
}
