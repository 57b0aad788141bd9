//! Differential property tests for scoring: the scalar reference vs
//! `sum_at`, and `PpfFilter::score_and_record` vs the sequential
//! `infer_indexed` + `record_indexed` loop — all must be bit-identical.

use ppf::{Decision, FeatureInputs, IndexList, Perceptron, PpfConfig, PpfFilter, MAX_BATCH};
use proptest::prelude::*;

/// Scalar reference inference: one weight read per index, summed.
fn scalar_sum(p: &Perceptron, globals: &IndexList) -> i32 {
    globals.as_slice().iter().map(|&i| p.weight_at(i)).sum()
}

/// Builds a perceptron with the given per-table size exponents and a
/// deterministic pseudo-random training history.
fn trained_perceptron(size_bits: &[u32], train_steps: &[(usize, bool)]) -> Perceptron {
    let sizes: Vec<usize> = size_bits.iter().map(|&b| 1usize << b).collect();
    let mut p = Perceptron::new(&sizes);
    for &(seed, up) in train_steps {
        let locals: Vec<usize> = (0..sizes.len()).map(|f| seed.wrapping_mul(f + 3)).collect();
        p.train(&locals, up);
    }
    p
}

/// The sequential oracle: one `infer_indexed` + `record_indexed` per
/// candidate, in order.
fn score_sequential(f: &mut PpfFilter, window: &[(u64, FeatureInputs)], out: &mut Vec<Decision>) {
    for &(target, inputs) in window {
        let (d, sum, idxs) = f.infer_indexed(&inputs);
        f.record_indexed(target, inputs, idxs, sum, d);
        out.push(d);
    }
}

/// The streamed path under test, checking that decisions arrive in order.
fn score_batched(f: &mut PpfFilter, window: &[(u64, FeatureInputs)], out: &mut Vec<Decision>) {
    let start = out.len();
    f.score_and_record(window.iter().copied(), |j, d| {
        assert_eq!(
            j,
            out.len() - start,
            "decisions must arrive in candidate order"
        );
        out.push(d);
    });
    assert_eq!(
        out.len() - start,
        window.len(),
        "one decision per candidate"
    );
}

proptest! {
    /// `sum_at` and the scalar one-liner agree on every index list —
    /// including short lists and the full nine features.
    #[test]
    fn sum_at_matches_scalar(
        size_bits in proptest::collection::vec(6u32..13, 2..10),
        train_steps in proptest::collection::vec((0usize..1 << 16, any::<bool>()), 0..200),
        locals in proptest::collection::vec(0usize..1 << 16, 9..10),
    ) {
        let p = trained_perceptron(&size_bits, &train_steps);
        let g = p.globalize(
            &locals[..size_bits.len()].iter().map(|&i| i as u16).collect::<IndexList>(),
        );
        prop_assert_eq!(p.sum_at(&g), scalar_sum(&p, &g));
    }

    /// `score_and_record` over windows of 0..=MAX_BATCH+17 candidates —
    /// with tiny metadata tables, so recording constantly
    /// displacement-trains the weights mid-window — reproduces the
    /// sequential infer/record loop exactly: same decisions, same counters
    /// (per-source included), same trained weights.
    #[test]
    fn score_and_record_matches_sequential(
        accesses in proptest::collection::vec(
            (0u64..1 << 20, 0u8..101, 1u8..17, -64i16..64, 0u8..4),
            1..300,
        ),
        windows in proptest::collection::vec(0usize..MAX_BATCH + 18, 1..12),
        evict_every in 2usize..6,
        hybrid in any::<bool>(),
    ) {
        let features = if hybrid { PpfConfig::hybrid() } else { PpfConfig::default() };
        let tiny = PpfConfig { prefetch_table_entries: 8, reject_table_entries: 8, ..features };
        let mut seq = PpfFilter::new(tiny.clone());
        let mut bat = PpfFilter::new(tiny);
        let stream: Vec<(u64, FeatureInputs)> = accesses
            .iter()
            .map(|&(addr, conf, depth, delta, source)| {
                let a = 0x10_0000 + addr * 64;
                (a, FeatureInputs {
                    trigger_addr: a,
                    trigger_pc: 0x400000 + u64::from(conf) * 4,
                    confidence: conf,
                    delta,
                    depth,
                    source,
                    ..FeatureInputs::default()
                })
            })
            .collect();

        let mut decisions_seq = Vec::new();
        let mut decisions_bat = Vec::new();
        let mut cursor = 0usize;
        // Window sizes cycle through the generated list, so window
        // boundaries land at arbitrary (and repeating) offsets. The bound
        // on rounds keeps an all-zero list finite; the tail goes last.
        for round in 0..stream.len() + windows.len() {
            let n = windows[round % windows.len()].min(stream.len() - cursor);
            let window = &stream[cursor..cursor + n];
            score_sequential(&mut seq, window, &mut decisions_seq);
            score_batched(&mut bat, window, &mut decisions_bat);

            // Interleave eviction feedback between windows so both positive
            // and negative training paths run.
            for &(addr, _) in window.iter().step_by(evict_every) {
                seq.train_on_eviction(addr, false);
                bat.train_on_eviction(addr, false);
            }
            cursor += n;
            if cursor == stream.len() {
                break;
            }
        }
        score_sequential(&mut seq, &stream[cursor..], &mut decisions_seq);
        score_batched(&mut bat, &stream[cursor..], &mut decisions_bat);

        prop_assert_eq!(decisions_seq, decisions_bat);
        prop_assert_eq!(seq.stats, bat.stats);
        prop_assert_eq!(seq.save_weights(), bat.save_weights());
    }
}

/// A deterministic end-to-end spot check that survives even if proptest
/// shrinks oddly: heavy negative training between windows, rejection
/// thresholds crossed mid-stream.
#[test]
fn score_and_record_crosses_thresholds_like_sequential() {
    let mut seq = PpfFilter::default();
    let mut bat = PpfFilter::default();
    let inp = |addr: u64| FeatureInputs {
        trigger_addr: addr,
        trigger_pc: 0x400100,
        confidence: 10,
        delta: 1,
        depth: 1,
        ..FeatureInputs::default()
    };
    let (mut decisions_seq, mut decisions_bat) = (Vec::new(), Vec::new());
    for round in 0..30u64 {
        let window: Vec<(u64, FeatureInputs)> = (0..5)
            .map(|i| 0x2000 + round * 320 + i * 64)
            .map(|a| (a, inp(a)))
            .collect();
        score_sequential(&mut seq, &window, &mut decisions_seq);
        score_batched(&mut bat, &window, &mut decisions_bat);
        for &(a, _) in &window {
            seq.train_on_eviction(a, false);
            bat.train_on_eviction(a, false);
        }
    }
    assert!(
        decisions_seq.contains(&Decision::Reject),
        "training must push the filter across tau_lo"
    );
    assert_eq!(decisions_seq, decisions_bat);
    assert_eq!(seq.stats, bat.stats);
    assert_eq!(seq.save_weights(), bat.save_weights());
}
