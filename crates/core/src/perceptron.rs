//! The hashed-perceptron weight store.
//!
//! A hashed perceptron (Tarjan & Skadron) keeps one small table of signed
//! weights per feature. Inference reads one weight per table (indexed by the
//! feature's hash) and sums them; training increments or decrements exactly
//! those weights. Weights are 5-bit saturating counters in `[-16, +15]` —
//! the paper found 5 bits the best accuracy/area trade-off (Sec 3.1).
//!
//! # Data layout
//!
//! The per-feature tables are stored as **one contiguous `i8` arena** with
//! a precomputed base offset and index mask per feature (see DESIGN.md §5b).
//! One byte holds one 5-bit weight, so the paper's nine tables take
//! 22,656 bytes and stay cache-resident; weights widen to `i32` only when
//! summed. [`Perceptron::index`] hashes each feature once, straight to its
//! arena position `base[f] + (hash & mask[f])`, and the resulting
//! [`IndexList`] of `u16` positions (an arena holds at most
//! [`MAX_POSITIONS`]) drives inference ([`Perceptron::sum_at`]) and
//! training ([`Perceptron::train_at`]) as a single gather over a flat
//! slice — no per-table pointer chasing and no heap allocation.

use crate::features::{FeatureInputs, FeatureKind, IndexList, MAX_FEATURES};

/// Minimum weight value (5-bit signed).
pub const WEIGHT_MIN: i8 = -16;
/// Maximum weight value (5-bit signed).
pub const WEIGHT_MAX: i8 = 15;

/// Most weights one arena holds: [`MAX_FEATURES`] tables of the largest
/// (4,096-entry) size, so every position fits the `u16` of an
/// [`IndexList`].
pub const MAX_POSITIONS: usize = 1 << 16;

/// An inline, fixed-capacity snapshot of the weights at an [`IndexList`]'s
/// arena positions — the training-event log's carrier. `Copy` and
/// heap-free, unlike the `Vec<i8>` it replaced, so snapshotting weights on
/// the filter's hot path never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WeightList {
    raw: [i8; MAX_FEATURES],
    len: u8,
}

impl WeightList {
    /// Number of weights captured.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when no weights were captured.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The captured weights in feature order.
    pub fn as_slice(&self) -> &[i8] {
        &self.raw[..self.len as usize]
    }
}

impl std::ops::Index<usize> for WeightList {
    type Output = i8;

    fn index(&self, i: usize) -> &i8 {
        &self.as_slice()[i]
    }
}

impl FromIterator<i8> for WeightList {
    /// # Panics
    ///
    /// Panics if the iterator yields more than [`MAX_FEATURES`] weights.
    fn from_iter<T: IntoIterator<Item = i8>>(iter: T) -> Self {
        let mut raw = [0i8; MAX_FEATURES];
        let mut len = 0usize;
        for w in iter {
            assert!(len < MAX_FEATURES, "more than MAX_FEATURES weights");
            raw[len] = w;
            len += 1;
        }
        Self { raw, len: len as u8 }
    }
}

/// A bank of per-feature weight tables flattened into one arena.
#[derive(Debug, Clone)]
pub struct Perceptron {
    /// All tables' weights, concatenated in feature order.
    arena: Vec<i8>,
    /// Arena offset of each feature's table.
    bases: Vec<u32>,
    /// `entries - 1` per feature (all sizes are powers of two).
    masks: Vec<u32>,
}

impl Perceptron {
    /// Creates one zeroed table per entry of `sizes`.
    ///
    /// # Panics
    ///
    /// Panics if `sizes` is empty, any size is not a power of two, or the
    /// tables together exceed [`MAX_POSITIONS`] weights.
    pub fn new(sizes: &[usize]) -> Self {
        assert!(!sizes.is_empty(), "need at least one feature table");
        let mut bases = Vec::with_capacity(sizes.len());
        let mut masks = Vec::with_capacity(sizes.len());
        let mut total = 0usize;
        for &s in sizes {
            assert!(s.is_power_of_two(), "table size must be a power of two");
            bases.push(total as u32);
            masks.push((s - 1) as u32);
            total += s;
        }
        assert!(total <= MAX_POSITIONS, "weight arena of {total} exceeds {MAX_POSITIONS} positions");
        Self { arena: vec![0; total], bases, masks }
    }

    /// Number of feature tables.
    pub fn num_tables(&self) -> usize {
        self.bases.len()
    }

    /// Entries in one feature's table.
    pub fn table_len(&self, feature: usize) -> usize {
        self.masks[feature] as usize + 1
    }

    /// One feature's weights as a slice of the arena (for the paper's
    /// Figure 6 histograms).
    pub fn feature_weights(&self, feature: usize) -> &[i8] {
        let base = self.bases[feature] as usize;
        &self.arena[base..base + self.table_len(feature)]
    }

    /// Reads one weight by feature and local (pre-mask) index.
    pub fn get(&self, feature: usize, index: usize) -> i32 {
        i32::from(self.arena[self.bases[feature] as usize + (index & self.masks[feature] as usize)])
    }

    /// Reads one weight by arena position (from [`Perceptron::index`]) —
    /// the single-index form of [`Perceptron::sum_at`]'s gather, used by
    /// decision-time telemetry to attribute each feature's contribution.
    #[inline]
    pub fn weight_at(&self, position: u16) -> i32 {
        i32::from(self.arena[usize::from(position)])
    }

    /// Hashes every feature of `set` (table `f` for `set[f]`) straight to
    /// its arena position, `base[f] + (hash & mask[f])`: one pass, done
    /// once per candidate at inference time. The result is stored in the
    /// Prefetch/Reject tables so training reuses it without rehashing.
    ///
    /// # Panics
    ///
    /// Panics if `set` does not have one feature per table.
    #[inline]
    pub fn index(&self, set: &[FeatureKind], inputs: &FeatureInputs) -> IndexList {
        assert_eq!(set.len(), self.bases.len(), "one feature per table");
        let hashes = FeatureKind::hashes(inputs);
        let mut raw = [0u16; MAX_FEATURES];
        for (slot, (&k, (&base, &mask))) in
            raw.iter_mut().zip(set.iter().zip(self.bases.iter().zip(&self.masks)))
        {
            *slot = (base + (hashes[k as usize] as u32 & mask)) as u16;
        }
        IndexList::from_prefix(raw, set.len())
    }

    /// Maps per-feature local indices to arena positions: one add and one
    /// mask per feature. [`Perceptron::index`] does the same in one pass
    /// from the feature inputs; this two-step form serves callers that
    /// already hold local indices (tests, offline analysis).
    pub fn globalize(&self, locals: &IndexList) -> IndexList {
        assert_eq!(locals.len(), self.bases.len(), "one index per feature table");
        locals
            .as_slice()
            .iter()
            .zip(self.bases.iter().zip(&self.masks))
            .map(|(&local, (&base, &mask))| (base + (u32::from(local) & mask)) as u16)
            .collect()
    }

    /// Inference over arena positions from [`Perceptron::index`]: a single
    /// gather over the flat byte arena, each weight widened to `i32` as it
    /// is added (at most 16 weights of 5 bits cannot overflow).
    #[inline]
    pub fn sum_at(&self, positions: &IndexList) -> i32 {
        positions.as_slice().iter().map(|&i| i32::from(self.arena[usize::from(i)])).sum()
    }

    /// Training over arena positions: bump every selected weight up
    /// (`true`) or down (`false`), saturating at the 5-bit range.
    pub fn train_at(&mut self, positions: &IndexList, up: bool) {
        for &i in positions.as_slice() {
            let w = &mut self.arena[usize::from(i)];
            *w = if up { (*w + 1).min(WEIGHT_MAX) } else { (*w - 1).max(WEIGHT_MIN) };
        }
    }

    /// Reads the weights at arena positions (for the training-event log).
    /// Returns an inline fixed-capacity [`WeightList`] — no heap traffic on
    /// the event-logging path.
    pub fn weights_at(&self, positions: &IndexList) -> WeightList {
        positions.as_slice().iter().map(|&i| self.arena[usize::from(i)]).collect()
    }

    /// Inference from per-feature local indices (convenience for tests and
    /// offline analysis; the hot path indexes once and uses
    /// [`Perceptron::sum_at`]).
    ///
    /// # Panics
    ///
    /// Panics if `indices.len()` differs from the number of tables.
    pub fn sum(&self, indices: &[usize]) -> i32 {
        assert_eq!(indices.len(), self.bases.len(), "one index per feature table");
        indices.iter().enumerate().map(|(f, &i)| self.get(f, i)).sum()
    }

    /// Training from per-feature local indices (see [`Perceptron::sum`]).
    ///
    /// # Panics
    ///
    /// Panics if `indices.len()` differs from the number of tables.
    pub fn train(&mut self, indices: &[usize], up: bool) {
        assert_eq!(indices.len(), self.bases.len(), "one index per feature table");
        let positions: IndexList = indices
            .iter()
            .enumerate()
            .map(|(f, &i)| (self.bases[f] + (i as u32 & self.masks[f])) as u16)
            .collect();
        self.train_at(&positions, up);
    }

    /// Total storage in bits: 5 bits per weight, as in hardware. The
    /// simulator keeps each weight in a whole byte; the budget counts the
    /// modeled 5.
    pub fn storage_bits(&self) -> u64 {
        self.arena.len() as u64 * 5
    }

    /// Serializes all weights into a flat byte vector (one `i8` per weight,
    /// tables concatenated in order): the arena's own bytes. Pair with
    /// [`Perceptron::load_weights`] to warm-start a filter from a previous
    /// run.
    pub fn save_weights(&self) -> Vec<u8> {
        self.arena.iter().map(|&w| w as u8).collect()
    }

    /// Restores weights produced by [`Perceptron::save_weights`].
    ///
    /// # Errors
    ///
    /// Returns the expected length if `bytes` has the wrong size, or the
    /// offending value if any byte is outside the 5-bit weight range.
    pub fn load_weights(&mut self, bytes: &[u8]) -> Result<(), String> {
        if bytes.len() != self.arena.len() {
            return Err(format!("expected {} weights, got {}", self.arena.len(), bytes.len()));
        }
        for &b in bytes {
            let w = b as i8;
            if !(WEIGHT_MIN..=WEIGHT_MAX).contains(&w) {
                return Err(format!("weight {w} outside the 5-bit range"));
            }
        }
        for (slot, &b) in self.arena.iter_mut().zip(bytes) {
            *slot = b as i8;
        }
        Ok(())
    }

    /// FNV-1a digest of the full weight arena (as the bytes
    /// [`Perceptron::save_weights`] serializes). Two perceptrons with equal
    /// digests hold bit-identical weights — the cheap equality check the
    /// serving daemon's warm-start verification and the checkpoint tests
    /// rely on.
    pub fn weights_digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &w in &self.arena {
            h ^= u64::from(w as u8);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    /// The theoretical output range `[min, max]` of [`Perceptron::sum`].
    pub fn sum_range(&self) -> (i32, i32) {
        let n = self.bases.len() as i32;
        (n * i32::from(WEIGHT_MIN), n * i32::from(WEIGHT_MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn globals(p: &Perceptron, locals: &[usize]) -> IndexList {
        p.globalize(&locals.iter().map(|&i| i as u16).collect())
    }

    #[test]
    fn zero_initialised() {
        let p = Perceptron::new(&[64, 128]);
        assert_eq!(p.sum(&[3, 100]), 0);
    }

    #[test]
    fn train_moves_sum() {
        let mut p = Perceptron::new(&[64, 64]);
        p.train(&[1, 2], true);
        assert_eq!(p.sum(&[1, 2]), 2);
        p.train(&[1, 2], false);
        p.train(&[1, 2], false);
        assert_eq!(p.sum(&[1, 2]), -2);
    }

    #[test]
    fn flat_path_matches_local_path() {
        let mut p = Perceptron::new(&[64, 128, 4096]);
        let locals = [5usize, 100, 4000];
        let g = globals(&p, &locals);
        p.train_at(&g, true);
        p.train_at(&g, true);
        assert_eq!(p.sum_at(&g), p.sum(&locals));
        assert_eq!(p.sum_at(&g), 6);
        p.train(&locals, false);
        assert_eq!(p.sum_at(&g), 3);
    }

    #[test]
    fn weights_saturate() {
        let mut p = Perceptron::new(&[8]);
        let g = globals(&p, &[3]);
        for _ in 0..100 {
            p.train_at(&g, true);
        }
        assert_eq!(p.get(0, 3), i32::from(WEIGHT_MAX));
        for _ in 0..100 {
            p.train_at(&g, false);
        }
        assert_eq!(p.get(0, 3), i32::from(WEIGHT_MIN));
    }

    #[test]
    fn indices_are_masked() {
        let p = Perceptron::new(&[16]);
        assert_eq!(p.get(0, 16), p.get(0, 0));
        assert_eq!(p.get(0, 31), p.get(0, 15));
        // globalize applies the same mask.
        assert_eq!(globals(&p, &[16]), globals(&p, &[0]));
    }

    #[test]
    fn tables_are_independent() {
        let mut p = Perceptron::new(&[64, 64]);
        p.train(&[5, 9], true);
        assert_eq!(p.get(0, 9), 0);
        assert_eq!(p.get(1, 5), 0);
        assert_eq!(p.get(0, 5), 1);
    }

    #[test]
    fn arena_layout_is_concatenation() {
        let mut p = Perceptron::new(&[64, 128]);
        assert_eq!(p.num_tables(), 2);
        assert_eq!(p.table_len(0), 64);
        assert_eq!(p.table_len(1), 128);
        p.train(&[0, 0], true);
        // Feature 1's slot 0 lives at arena offset 64.
        assert_eq!(p.feature_weights(1)[0], 1);
        assert_eq!(p.feature_weights(0)[0], 1);
        assert_eq!(p.feature_weights(0).len() + p.feature_weights(1).len(), 192);
    }

    #[test]
    fn storage_accounting() {
        // The paper's Table 3 perceptron block:
        // 4×4096 + 2×2048 + 2×1024 + 1×128 weights at 5 bits = 113,280 bits.
        let p = Perceptron::new(&[4096, 4096, 4096, 4096, 2048, 2048, 1024, 1024, 128]);
        assert_eq!(p.storage_bits(), 113_280);
    }

    #[test]
    fn save_load_roundtrip() {
        let mut p = Perceptron::new(&[64, 128]);
        p.train(&[3, 70], true);
        p.train(&[3, 70], true);
        p.train(&[9, 9], false);
        let saved = p.save_weights();
        let mut q = Perceptron::new(&[64, 128]);
        q.load_weights(&saved).expect("roundtrip");
        assert_eq!(q.sum(&[3, 70]), p.sum(&[3, 70]));
        assert_eq!(q.sum(&[9, 9]), p.sum(&[9, 9]));
    }

    #[test]
    fn load_rejects_bad_shapes_and_values() {
        let mut p = Perceptron::new(&[64]);
        assert!(p.load_weights(&[0u8; 63]).is_err(), "wrong length");
        let mut bad = vec![0u8; 64];
        bad[0] = 100; // 100 as i8 = 100, outside [-16, 15]
        assert!(p.load_weights(&bad).is_err(), "out-of-range weight");
    }

    #[test]
    fn sum_range_matches_weights() {
        let p = Perceptron::new(&[64; 9]);
        assert_eq!(p.sum_range(), (-144, 135));
    }

    #[test]
    #[should_panic(expected = "one index per feature table")]
    fn wrong_arity_panics() {
        Perceptron::new(&[64, 64]).sum(&[1]);
    }

    #[test]
    fn weight_list_carrier() {
        let mut p = Perceptron::new(&[64, 128]);
        let g = globals(&p, &[3, 70]);
        p.train_at(&g, true);
        p.train_at(&g, false);
        p.train_at(&g, false);
        let w = p.weights_at(&g);
        assert_eq!(w.len(), 2);
        assert!(!w.is_empty());
        assert_eq!(w.as_slice(), &[-1, -1]);
        assert_eq!(w[0], -1);
        assert_eq!(WeightList::default().len(), 0);
        let collected: WeightList = [1i8, -2, 3].into_iter().collect();
        assert_eq!(collected.as_slice(), &[1, -2, 3]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_rejected() {
        Perceptron::new(&[100]);
    }

    #[test]
    fn arena_fills_every_u16_position() {
        // Sixteen 4,096-entry tables: exactly MAX_POSITIONS weights, the
        // last one reachable through a u16 position.
        let mut p = Perceptron::new(&[4096; MAX_FEATURES]);
        p.train(&[4095; MAX_FEATURES], true);
        assert_eq!(p.weight_at(u16::MAX), 1);
        assert_eq!(p.sum(&[4095; MAX_FEATURES]), MAX_FEATURES as i32);
    }

    #[test]
    #[should_panic(expected = "exceeds 65536 positions")]
    fn arena_above_u16_positions_rejected() {
        Perceptron::new(&[32768, 32768, 1]);
    }

    #[test]
    fn index_hashes_straight_to_arena_positions() {
        use crate::features::index_list;
        let set = FeatureKind::default_set();
        let sizes: Vec<usize> = set.iter().map(|k| k.table_entries()).collect();
        let p = Perceptron::new(&sizes);
        let inputs = FeatureInputs {
            trigger_addr: 0x00de_adbe_efc0,
            trigger_pc: 0x40_1234,
            pc_1: 0x40_1230,
            signature: 0x5a5,
            confidence: 87,
            delta: -3,
            depth: 4,
            ..FeatureInputs::default()
        };
        let positions = p.index(&set, &inputs);
        assert_eq!(positions, p.globalize(&index_list(&set, &inputs)));
        // Feature 1 (cache line) lands in its own table's slice.
        let cache_line = usize::from(positions.as_slice()[1]);
        assert_eq!(cache_line - 4096, FeatureKind::CacheLine.index(&inputs));
    }
}
