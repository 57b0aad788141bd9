//! Property tests: the flattened byte arena is bit-identical to the
//! nine-separate-tables design it replaced, and its one-pass feature
//! indexing lands on the same positions as hashing to local indices and
//! then globalizing them.
//!
//! The reference model below is a straight transcription of the
//! pre-arena `WeightTable` code — one independent `Vec<i32>` per feature,
//! local indices masked per table, saturating 5-bit updates. Arbitrary
//! interleavings of inference and training must produce exactly the same
//! sums and exactly the same final weights in both layouts.

use ppf::features::index_list;
use ppf::{FeatureInputs, FeatureKind, IndexList, Perceptron, WEIGHT_MAX, WEIGHT_MIN};
use proptest::prelude::*;

/// The old layout: one heap table per feature.
struct RefTables {
    tables: Vec<Vec<i32>>,
}

impl RefTables {
    fn new(sizes: &[usize]) -> Self {
        Self { tables: sizes.iter().map(|&n| vec![0i32; n]).collect() }
    }

    fn mask(&self, feature: usize) -> usize {
        self.tables[feature].len() - 1
    }

    fn sum(&self, locals: &[usize]) -> i32 {
        locals
            .iter()
            .enumerate()
            .map(|(f, &ix)| self.tables[f][ix & self.mask(f)])
            .sum()
    }

    fn train(&mut self, locals: &[usize], up: bool) {
        for (f, &ix) in locals.iter().enumerate() {
            let m = self.mask(f);
            let w = &mut self.tables[f][ix & m];
            *w = if up {
                (*w + 1).min(i32::from(WEIGHT_MAX))
            } else {
                (*w - 1).max(i32::from(WEIGHT_MIN))
            };
        }
    }
}

/// The paper's nine features at most; each script entry carries nine raw
/// indices and uses the first `sizes.len()` of them.
const MAX_TABLES: usize = 9;

/// The feature sets the one-pass index is checked on: the default and
/// hybrid sets, the default set plus each rejected feature, and `extra`
/// (an arbitrary sequence of kinds, repeats allowed).
fn feature_sets(extra: &[usize]) -> Vec<Vec<FeatureKind>> {
    let with = |k: FeatureKind| {
        let mut set = FeatureKind::default_set();
        set.push(k);
        set
    };
    vec![
        FeatureKind::default_set(),
        FeatureKind::hybrid_set(),
        with(FeatureKind::LastSignature),
        with(FeatureKind::RawPc),
        with(FeatureKind::DepthAlone),
        extra.iter().map(|&i| FeatureKind::ALL[i]).collect(),
    ]
}

proptest! {
    #[test]
    fn arena_matches_nine_tables(
        // Power-of-two table sizes like the paper's (64..4096), 2–9 tables.
        size_bits in collection::vec(6u32..13, 2..(MAX_TABLES + 1)),
        // (raw local indices, action): 0 = infer, 1 = train up, 2 = down.
        // Indices are unmasked so the per-table masking paths are exercised.
        script in collection::vec(
            (collection::vec(0usize..65536, MAX_TABLES..(MAX_TABLES + 1)), 0u8..3),
            1..200,
        ),
    ) {
        let sizes: Vec<usize> = size_bits.iter().map(|&b| 1usize << b).collect();
        let mut arena = Perceptron::new(&sizes);
        let mut reference = RefTables::new(&sizes);
        for (raw, action) in &script {
            let locals = &raw[..sizes.len()];
            // Globalize once (which applies the per-feature masks), then
            // gather/update through the flat arena as the filter does.
            let local_list: IndexList = locals.iter().map(|&ix| ix as u16).collect();
            let globals = arena.globalize(&local_list);
            match action {
                0 => prop_assert_eq!(arena.sum_at(&globals), reference.sum(locals)),
                1 => {
                    arena.train_at(&globals, true);
                    reference.train(locals, true);
                }
                _ => {
                    arena.train_at(&globals, false);
                    reference.train(locals, false);
                }
            }
        }
        // Final weights must be bit-identical, table by table, entry by entry.
        for (f, table) in reference.tables.iter().enumerate() {
            let widened: Vec<i32> = arena.feature_weights(f).iter().map(|&w| i32::from(w)).collect();
            prop_assert_eq!(widened, table.clone(), "feature {}", f);
        }
        // And the serialized form (what checkpoints store) must agree with
        // the reference weights byte for byte.
        let bytes = arena.save_weights();
        let flat: Vec<u8> = reference
            .tables
            .iter()
            .flatten()
            .map(|&w| (w as i8) as u8)
            .collect();
        prop_assert_eq!(bytes, flat);
    }

    /// The legacy slice API and the indexed fast path agree on every input.
    #[test]
    fn legacy_and_indexed_paths_agree(
        size_bits in collection::vec(6u32..13, 2..(MAX_TABLES + 1)),
        script in collection::vec(
            (collection::vec(0usize..65536, MAX_TABLES..(MAX_TABLES + 1)), 0u8..3),
            1..200,
        ),
    ) {
        let sizes: Vec<usize> = size_bits.iter().map(|&b| 1usize << b).collect();
        let mut a = Perceptron::new(&sizes);
        let mut b = Perceptron::new(&sizes);
        for (raw, action) in &script {
            let locals = &raw[..sizes.len()];
            let local_list: IndexList = locals.iter().map(|&ix| ix as u16).collect();
            let globals = b.globalize(&local_list);
            match action {
                0 => prop_assert_eq!(a.sum(locals), b.sum_at(&globals)),
                1 => {
                    a.train(locals, true);
                    b.train_at(&globals, true);
                }
                _ => {
                    a.train(locals, false);
                    b.train_at(&globals, false);
                }
            }
        }
        for f in 0..sizes.len() {
            prop_assert_eq!(a.feature_weights(f), b.feature_weights(f), "feature {}", f);
        }
    }

    /// `Perceptron::index` (hash straight to `base + (hash & mask)`) gives
    /// the positions of the two-pass `globalize(index_list(..))` on every
    /// input, for every feature set.
    #[test]
    fn one_pass_index_matches_two_pass(
        fields in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        meta in (any::<u16>(), any::<u16>(), 0u8..=100, any::<i16>(), any::<u8>(), any::<u8>()),
        extra in collection::vec(0usize..FeatureKind::ALL.len(), 1..17),
    ) {
        let (trigger_addr, trigger_pc, pc_1, pc_2, pc_3) = fields;
        let (signature, last_signature, confidence, delta, depth, source) = meta;
        let inputs = FeatureInputs {
            trigger_addr,
            trigger_pc,
            pc_1,
            pc_2,
            pc_3,
            signature,
            last_signature,
            confidence,
            delta,
            depth,
            source,
        };
        for set in feature_sets(&extra) {
            let sizes: Vec<usize> = set.iter().map(|k| k.table_entries()).collect();
            let p = Perceptron::new(&sizes);
            prop_assert_eq!(
                p.index(&set, &inputs),
                p.globalize(&index_list(&set, &inputs)),
                "set {:?}",
                set
            );
        }
    }
}
