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
//! The per-feature tables are stored as **one contiguous `i32` arena** with
//! a precomputed base offset and index mask per feature (see DESIGN.md §5b).
//! A feature's local hash index maps to an arena position with one add and
//! one and (`base[f] + (local & mask[f])`); [`Perceptron::globalize`] does
//! that mapping once per candidate and the resulting [`IndexList`] of arena
//! positions drives inference ([`Perceptron::sum_at`]) and training
//! ([`Perceptron::train_at`]) as a single gather over a flat slice — no
//! per-table pointer chasing and no heap allocation.

use crate::features::{IndexList, MAX_FEATURES};

/// Minimum weight value (5-bit signed).
pub const WEIGHT_MIN: i8 = -16;
/// Maximum weight value (5-bit signed).
pub const WEIGHT_MAX: i8 = 15;

/// Candidates per transposed block in [`Perceptron::sum_batch`]. Arbitrary
/// batch sizes are chunked to this, so the stack-resident transpose buffer
/// stays at `MAX_FEATURES * BATCH_CHUNK * 4` bytes (4 KiB).
const BATCH_CHUNK: usize = 64;

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
    arena: Vec<i32>,
    /// Arena offset of each feature's table.
    bases: Vec<u32>,
    /// `entries - 1` per feature (all sizes are powers of two).
    masks: Vec<u32>,
    /// Bumped on every weight mutation ([`Perceptron::train_at`],
    /// [`Perceptron::load_weights`]). Batched scoring records the epoch it
    /// scored under; a later epoch means the cached sums may be stale, so
    /// each candidate judged after the move is rescored on its own (see
    /// `PpfFilter::score_and_record`).
    epoch: u64,
}

impl Perceptron {
    /// Creates one zeroed table per entry of `sizes`.
    ///
    /// # Panics
    ///
    /// Panics if `sizes` is empty or any size is not a power of two.
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
        Self { arena: vec![0; total], bases, masks, epoch: 0 }
    }

    /// Number of feature tables.
    pub fn num_tables(&self) -> usize {
        self.bases.len()
    }

    /// Weight-mutation counter: unchanged epoch between two reads means no
    /// weight changed in between, so cached inference sums are still exact.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Entries in one feature's table.
    pub fn table_len(&self, feature: usize) -> usize {
        self.masks[feature] as usize + 1
    }

    /// One feature's weights as a slice of the arena (for the paper's
    /// Figure 6 histograms).
    pub fn feature_weights(&self, feature: usize) -> &[i32] {
        let base = self.bases[feature] as usize;
        &self.arena[base..base + self.table_len(feature)]
    }

    /// Reads one weight by feature and local (pre-mask) index.
    pub fn get(&self, feature: usize, index: usize) -> i32 {
        self.arena[self.bases[feature] as usize + (index & self.masks[feature] as usize)]
    }

    /// Reads one weight by arena position (from [`Perceptron::globalize`]) —
    /// the single-index form of [`Perceptron::sum_at`]'s gather, used by
    /// decision-time telemetry to attribute each feature's contribution.
    #[inline]
    pub fn weight_at(&self, global: u32) -> i32 {
        self.arena[global as usize]
    }

    /// Maps per-feature local indices to arena positions: one add and one
    /// mask per feature, done once per candidate at inference time. The
    /// result is stored in the Prefetch/Reject tables so training reuses
    /// it without rehashing.
    pub fn globalize(&self, locals: &IndexList) -> IndexList {
        assert_eq!(locals.len(), self.bases.len(), "one index per feature table");
        locals
            .as_slice()
            .iter()
            .zip(self.bases.iter().zip(&self.masks))
            .map(|(&local, (&base, &mask))| base + (local & mask))
            .collect()
    }

    /// Inference over arena positions from [`Perceptron::globalize`]: a
    /// single gather-and-sum over the flat weight slice, unrolled by
    /// [`ppf_sim::simd::sum_gather_i32`] (`i32` addition over 5-bit weights
    /// cannot overflow, so lane order doesn't matter).
    pub fn sum_at(&self, globals: &IndexList) -> i32 {
        ppf_sim::simd::sum_gather_i32(&self.arena, globals.as_slice())
    }

    /// Batched inference: scores `lists[c]` into `out[c]` for every
    /// candidate in one call. Index lists are transposed into feature-major
    /// order on the stack so each feature's weight-table cache lines are
    /// touched once per chunk of [`BATCH_CHUNK`] candidates, then summed by
    /// the same unrolled gather loops as [`Perceptron::sum_at`]. Results
    /// are bit-identical to calling `sum_at` per candidate at this epoch.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than `lists` or any list's arity differs
    /// from the number of feature tables.
    pub fn sum_batch(&self, lists: &[IndexList], out: &mut [i32]) {
        assert!(out.len() >= lists.len(), "output slice shorter than batch");
        let features = self.bases.len();
        let mut trans = [0u32; MAX_FEATURES * BATCH_CHUNK];
        for (chunk, out_chunk) in
            lists.chunks(BATCH_CHUNK).zip(out.chunks_mut(BATCH_CHUNK))
        {
            for (c, list) in chunk.iter().enumerate() {
                let idx = list.as_slice();
                assert_eq!(idx.len(), features, "one index per feature table");
                for (f, &i) in idx.iter().enumerate() {
                    trans[f * BATCH_CHUNK + c] = i;
                }
            }
            ppf_sim::simd::sum_batch_transposed(
                &self.arena,
                &trans,
                features,
                BATCH_CHUNK,
                chunk.len(),
                out_chunk,
            );
        }
    }

    /// Training over arena positions: bump every selected weight up
    /// (`true`) or down (`false`), saturating at the 5-bit range.
    pub fn train_at(&mut self, globals: &IndexList, up: bool) {
        self.epoch += 1;
        for &i in globals.as_slice() {
            let w = &mut self.arena[i as usize];
            *w = if up {
                (*w + 1).min(i32::from(WEIGHT_MAX))
            } else {
                (*w - 1).max(i32::from(WEIGHT_MIN))
            };
        }
    }

    /// Reads the weights at arena positions (for the training-event log).
    /// Returns an inline fixed-capacity [`WeightList`] — no heap traffic on
    /// the event-logging path.
    pub fn weights_at(&self, globals: &IndexList) -> WeightList {
        globals.as_slice().iter().map(|&i| self.arena[i as usize] as i8).collect()
    }

    /// Inference from per-feature local indices (convenience for tests and
    /// offline analysis; the hot path globalizes once and uses
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
        let globals: IndexList = indices
            .iter()
            .enumerate()
            .map(|(f, &i)| self.bases[f] + (i as u32 & self.masks[f]))
            .collect();
        self.train_at(&globals, up);
    }

    /// Total storage in bits (5 bits per weight, as in hardware — the
    /// simulator's `i32` arena is a speed/layout choice, not a budget one).
    pub fn storage_bits(&self) -> u64 {
        self.arena.len() as u64 * 5
    }

    /// Serializes all weights into a flat byte vector (one `i8` per weight,
    /// tables concatenated in order). Pair with [`Perceptron::load_weights`]
    /// to warm-start a filter from a previous run. The byte format is
    /// unchanged from the per-table layout: the arena *is* the
    /// concatenation.
    pub fn save_weights(&self) -> Vec<u8> {
        self.arena.iter().map(|&w| (w as i8) as u8).collect()
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
        self.epoch += 1;
        for (slot, &b) in self.arena.iter_mut().zip(bytes) {
            *slot = i32::from(b as i8);
        }
        Ok(())
    }

    /// FNV-1a digest of the full weight arena (as the `i8` values
    /// [`Perceptron::save_weights`] serializes). Two perceptrons with equal
    /// digests hold bit-identical weights — the cheap equality check the
    /// serving daemon's warm-start verification and the checkpoint tests
    /// rely on.
    pub fn weights_digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &w in &self.arena {
            h ^= u64::from((w as i8) as u8);
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
        p.globalize(&locals.iter().map(|&i| i as u32).collect())
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
    fn sum_batch_matches_per_candidate() {
        let mut p = Perceptron::new(&[64, 128, 4096]);
        // Scatter some trained weight so sums are non-trivial.
        for i in 0..200usize {
            p.train(&[i % 64, (i * 7) % 128, (i * 13) % 4096], i % 3 != 0);
        }
        // Sizes straddling the 8-lane blocks and the 64-candidate chunk.
        for n in [0usize, 1, 7, 8, 9, 40, 63, 64, 65, 130] {
            let lists: Vec<IndexList> = (0..n)
                .map(|c| globals(&p, &[c % 64, (c * 3) % 128, (c * 11) % 4096]))
                .collect();
            let mut out = vec![0i32; n];
            p.sum_batch(&lists, &mut out);
            for (c, list) in lists.iter().enumerate() {
                assert_eq!(out[c], p.sum_at(list), "batch {n}, candidate {c}");
            }
        }
    }

    #[test]
    fn epoch_tracks_weight_mutations() {
        let mut p = Perceptron::new(&[64, 128]);
        assert_eq!(p.epoch(), 0);
        let g = globals(&p, &[3, 70]);
        p.train_at(&g, true);
        assert_eq!(p.epoch(), 1);
        let saved = p.save_weights();
        assert_eq!(p.epoch(), 1, "read-only ops leave the epoch alone");
        p.load_weights(&saved).expect("roundtrip");
        assert_eq!(p.epoch(), 2, "bulk weight load moves the epoch");
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
}
