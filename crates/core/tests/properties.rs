//! Property-based tests of PPF's filter-level invariants.

use ppf::{Decision, FeatureInputs, FeatureKind, Perceptron, Ppf, PpfConfig, PpfFilter};
use ppf_prefetchers::{Candidate, CandidateMeta, LookaheadSource};
use ppf_sim::{AccessContext, EvictionInfo, Prefetcher};
use proptest::prelude::*;

fn arb_inputs() -> impl Strategy<Value = FeatureInputs> {
    (
        any::<u64>(),
        any::<u64>(),
        0u16..4096,
        0u8..=100,
        -63i16..=63,
        1u8..=32,
        any::<u8>(),
    )
        .prop_map(|(addr, pc, sig, conf, delta, depth, source)| FeatureInputs {
            trigger_addr: addr,
            trigger_pc: pc,
            pc_1: pc ^ 0x40,
            pc_2: pc ^ 0x80,
            pc_3: pc ^ 0xC0,
            signature: sig,
            last_signature: sig.rotate_left(3),
            confidence: conf,
            delta,
            depth,
            source,
        })
}

proptest! {
    /// Feature indices stay within their tables for every possible input.
    #[test]
    fn feature_indices_in_range(inputs in arb_inputs()) {
        for k in FeatureKind::ALL {
            prop_assert!(k.index(&inputs) < k.table_entries(), "{}", k.label());
        }
    }

    /// The full record→demand→evict lifecycle never corrupts the filter:
    /// sums stay bounded, stats stay consistent, decisions always follow
    /// the thresholds — under arbitrary event interleavings.
    #[test]
    fn filter_lifecycle_invariants(
        script in proptest::collection::vec((arb_inputs(), 0u8..3), 1..300)
    ) {
        let mut f = PpfFilter::new(PpfConfig::default());
        let n = f.features().len() as i32;
        for (inputs, action) in script {
            let block_addr = inputs.trigger_addr & !63;
            match action {
                0 => {
                    let (d, sum) = f.infer(&inputs);
                    prop_assert!((-16 * n..=15 * n).contains(&sum));
                    let cfg = f.config();
                    match d {
                        Decision::PrefetchL2 => prop_assert!(sum >= cfg.tau_hi),
                        Decision::PrefetchLlc => {
                            prop_assert!(sum >= cfg.tau_lo && sum < cfg.tau_hi)
                        }
                        Decision::Reject => prop_assert!(sum < cfg.tau_lo),
                    }
                    f.record(block_addr, inputs, sum, d);
                }
                1 => f.train_on_demand(block_addr),
                _ => f.train_on_eviction(block_addr, false),
            }
            let s = f.stats;
            prop_assert_eq!(
                s.inferences,
                s.accepted_l2 + s.accepted_llc + s.rejected,
                "decision counts must partition inferences"
            );
            prop_assert!(s.false_negative_recoveries <= s.positive_trains);
        }
    }

    /// The Ppf wrapper forwards exactly the accepted candidates: requests
    /// out = inferences - rejections at every trigger.
    #[test]
    fn wrapper_forwards_accepted(addrs in proptest::collection::vec(any::<u64>(), 1..200)) {
        struct TwoCands;
        impl LookaheadSource for TwoCands {
            fn candidates(&mut self, ctx: &AccessContext, out: &mut Vec<Candidate>) {
                for d in 1..=2u8 {
                    out.push(Candidate {
                        addr: (ctx.addr & !63) + u64::from(d) * 64,
                        meta: CandidateMeta {
                            depth: d,
                            signature: (ctx.addr >> 6) as u16 & 0xFFF,
                            confidence: 40,
                            delta: i16::from(d),
                            trigger_pc: ctx.pc,
                            trigger_addr: ctx.addr,
                            source: ppf_prefetchers::SourceId::PRIMARY,
                        },
                    });
                }
            }
            fn name(&self) -> &'static str {
                "two-cands"
            }
        }
        let mut ppf = Ppf::new(TwoCands);
        let mut out = Vec::new();
        for (i, addr) in addrs.into_iter().enumerate() {
            let before = ppf.filter_stats();
            out.clear();
            let ctx = AccessContext {
                pc: 0x400000 + (i as u64 % 32) * 4,
                addr,
                is_store: false,
                l2_hit: i % 2 == 0,
                cycle: i as u64,
                core: 0,
            };
            ppf.on_demand_access(&ctx, &mut out);
            if i % 5 == 0 {
                ppf.on_eviction(&EvictionInfo {
                    addr: (addr & !63) + 64,
                    was_prefetch: true,
                    was_used: false,
                });
            }
            let after = ppf.filter_stats();
            let inferred = after.inferences - before.inferences;
            let rejected = after.rejected - before.rejected;
            prop_assert_eq!(out.len() as u64, inferred - rejected);
        }
    }
}

proptest! {
    /// The one-pass `index_and_sum` gives the positions of `index` and the
    /// sum `sum_at` reads at them, for the paper's nine features and the
    /// hybrid set, over weights trained up and down at arbitrary inputs.
    #[test]
    fn index_and_sum_matches_index_then_sum_at(
        trained in proptest::collection::vec((arb_inputs(), any::<bool>()), 0..300),
        probes in proptest::collection::vec(arb_inputs(), 1..40),
    ) {
        for set in [FeatureKind::default_set(), FeatureKind::hybrid_set()] {
            let sizes: Vec<usize> = set.iter().map(|k| k.table_entries()).collect();
            let mut p = Perceptron::new(&sizes);
            for (inputs, up) in &trained {
                let positions = p.index(&set, inputs);
                p.train_at(&positions, *up);
            }
            for inputs in trained.iter().map(|(i, _)| i).chain(&probes) {
                let positions = p.index(&set, inputs);
                prop_assert_eq!(p.index_and_sum(&set, inputs), (positions, p.sum_at(&positions)));
            }
        }
    }
}
