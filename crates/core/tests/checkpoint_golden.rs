//! Checkpoint compatibility: the weight bytes a filter saves after a fixed
//! training stream, and the counters that stream leaves, are pinned to
//! constants.
//!
//! The serving daemon warm-starts tenants from `save_weights()` snapshots
//! written by earlier builds, so the snapshot format and the training that
//! produces it must not drift. A change to the weight store's layout, its
//! element type, the feature hashing or the training rules moves these
//! digests; such a change either keeps them or knowingly breaks every
//! existing checkpoint.

use ppf::{FeatureInputs, PpfConfig, PpfFilter};

/// SplitMix64: a tiny deterministic stream generator.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// FNV-1a over bytes, written out here so the pin does not lean on the
/// digest the crate itself computes.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Trains `f` on 4,000 requests of 1–12 candidates each, over a working
/// set wide enough to displace table entries, with demand and eviction
/// feedback on earlier targets.
fn train(f: &mut PpfFilter, seed: u64) {
    let mut rng = Mix(seed);
    let mut recent = [0u64; 64];
    for n in 0..4_000usize {
        let trigger = 0x4000_0000 + (rng.next() % 0x40_0000) * 64;
        let pc = 0x40_0000 + (rng.next() % 512) * 4;
        let count = 1 + rng.next() % 12;
        let cands: Vec<(u64, FeatureInputs)> = (0..count)
            .map(|d| {
                let r = rng.next();
                let delta = (r % 15) as i16 - 7;
                let target = trigger.wrapping_add_signed(i64::from(delta) * 64 * (d as i64 + 1));
                let inputs = FeatureInputs {
                    trigger_addr: trigger,
                    trigger_pc: pc,
                    pc_1: pc ^ 0x40,
                    pc_2: pc ^ 0x80,
                    pc_3: pc ^ 0xc0,
                    signature: (r >> 8) as u16 & 0xfff,
                    last_signature: (r >> 20) as u16 & 0xfff,
                    confidence: ((r >> 32) % 101) as u8,
                    delta,
                    depth: d as u8 + 1,
                    source: ((r >> 40) % 3) as u8,
                };
                (target, inputs)
            })
            .collect();
        f.score_and_record(cands.iter().copied(), |_, _| {});
        recent[n % recent.len()] = cands[0].0;
        let old = recent[(n * 7 + 3) % recent.len()];
        match rng.next() % 4 {
            0 | 1 => f.train_on_demand(old),
            2 => f.train_on_eviction(old, false),
            _ => {}
        }
    }
}

#[test]
fn default_filter_snapshot_is_pinned() {
    let mut f = PpfFilter::new(PpfConfig::default());
    train(&mut f, 7);
    let bytes = f.save_weights();
    assert_eq!(bytes.len(), 22_656, "4×4096 + 2×2048 + 2×1024 + 128 weights");
    assert_eq!(f.weights_digest(), 0x8039_19db_925d_d5cb);
    assert_eq!(fnv(&bytes), 0x8039_19db_925d_d5cb);
    let s = f.stats;
    assert_eq!(
        (s.inferences, s.accepted_l2, s.accepted_llc, s.rejected),
        (25_883, 2_023, 2_689, 21_171)
    );
    assert_eq!(
        (s.positive_trains, s.negative_trains, s.false_negative_recoveries, s.replacement_trains),
        (1_718, 3_135, 1_340, 2_957)
    );

    // The snapshot restores to the same digest.
    let mut g = PpfFilter::new(PpfConfig::default());
    g.warm_start(&bytes).expect("snapshot restores");
    assert_eq!(g.weights_digest(), f.weights_digest());
}

#[test]
fn hybrid_filter_snapshot_is_pinned() {
    let mut f = PpfFilter::new(PpfConfig::hybrid());
    train(&mut f, 11);
    let bytes = f.save_weights();
    assert_eq!(bytes.len(), 22_656 + 8, "the nine tables plus the source table");
    assert_eq!(f.weights_digest(), 0x23df_9d4f_6872_6c1c);
    assert_eq!(fnv(&bytes), 0x23df_9d4f_6872_6c1c);
    let s = f.stats;
    assert_eq!(
        (s.inferences, s.accepted_l2, s.accepted_llc, s.rejected),
        (26_382, 919, 2_897, 22_566)
    );
    assert_eq!(
        (s.positive_trains, s.negative_trains, s.false_negative_recoveries, s.replacement_trains),
        (1_650, 2_389, 1_371, 2_237)
    );
}
