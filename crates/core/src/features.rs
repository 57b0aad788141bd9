//! PPF's perceptron features (paper Sec 4.2).
//!
//! Each feature hashes some combination of the triggering access's context
//! and the candidate prefetch's metadata into an index for its own weight
//! table. The nine features the paper retained (after the Sec 5.5 Pearson
//! analysis) are [`FeatureKind::default_set`]; the rejected candidates the
//! paper discusses (e.g. *Last Signature*, Fig. 6's weak example) are also
//! implemented so the feature-selection methodology can be reproduced.
//!
//! Table sizes follow the paper's Table 3: the strongest features get full
//! 12-bit indexing (4096 entries), the weaker PC hashes get 10–11 bits, and
//! the raw confidence (0..=100) needs only 128 entries.

/// Everything a feature may hash over: the trigger context plus one
/// candidate's metadata (cf. paper Table 2's stored metadata).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FeatureInputs {
    /// Byte address of the demand access that triggered the prefetch chain.
    pub trigger_addr: u64,
    /// PC of the triggering instruction.
    pub trigger_pc: u64,
    /// The most recent PC before the trigger.
    pub pc_1: u64,
    /// The second most recent PC before the trigger.
    pub pc_2: u64,
    /// The third most recent PC before the trigger.
    pub pc_3: u64,
    /// Signature under which the candidate's delta was predicted.
    pub signature: u16,
    /// Signature at the *previous* lookahead step (the paper's rejected
    /// "Last Signature" feature).
    pub last_signature: u16,
    /// The underlying prefetcher's path confidence, 0..=100.
    pub confidence: u8,
    /// Predicted block delta.
    pub delta: i16,
    /// Lookahead depth of the candidate.
    pub depth: u8,
    /// Which scheme in a composed (hybrid) source produced the candidate;
    /// 0 for bare single-scheme sources. Consumed by the opt-in
    /// [`FeatureKind::SourceId`] table, ignored by the paper's nine.
    pub source: u8,
}

/// 7-bit sign-magnitude delta encoding (shared with SPP's signature hash).
fn encode_delta(delta: i16) -> u64 {
    let mag = (delta.unsigned_abs() & 0x3F) as u64;
    if delta < 0 {
        mag | 0x40
    } else {
        mag
    }
}

/// Number of [`FeatureKind`] variants.
pub const FEATURE_KINDS: usize = 13;

/// One perceptron feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureKind {
    /// Low bits of the triggering physical address.
    PhysAddr,
    /// The trigger address shifted by the block size.
    CacheLine,
    /// The trigger address shifted by the page size.
    PageAddr,
    /// Page address XOR candidate confidence — the paper's single strongest
    /// feature (Pearson ≈ 0.90).
    ConfidenceXorPage,
    /// `PC_1 ^ (PC_2 >> 1) ^ (PC_3 >> 2)`: the control-flow path hash.
    PcPathHash,
    /// Current signature XOR predicted delta (≈ the next signature).
    SignatureXorDelta,
    /// Trigger PC XOR lookahead depth (virtual-PC style disambiguation).
    PcXorDepth,
    /// Trigger PC XOR predicted delta.
    PcXorDelta,
    /// The raw path confidence.
    Confidence,
    /// REJECTED by the paper (Fig. 6): the previous step's signature alone.
    LastSignature,
    /// REJECTED: the trigger PC alone (aliases all lookahead depths).
    RawPc,
    /// REJECTED: the depth alone.
    DepthAlone,
    /// Which member of a composed (hybrid) source produced the candidate —
    /// lets the perceptron learn a per-scheme trust bias. Not in the
    /// paper's nine (meaningless for a single source); added by
    /// [`FeatureKind::hybrid_set`].
    SourceId,
}

impl FeatureKind {
    /// Every kind in declaration order, the paper's rejected candidates
    /// included (entry `i` is the kind with `kind as usize == i`).
    pub const ALL: [FeatureKind; FEATURE_KINDS] = [
        FeatureKind::PhysAddr,
        FeatureKind::CacheLine,
        FeatureKind::PageAddr,
        FeatureKind::ConfidenceXorPage,
        FeatureKind::PcPathHash,
        FeatureKind::SignatureXorDelta,
        FeatureKind::PcXorDepth,
        FeatureKind::PcXorDelta,
        FeatureKind::Confidence,
        FeatureKind::LastSignature,
        FeatureKind::RawPc,
        FeatureKind::DepthAlone,
        FeatureKind::SourceId,
    ];

    /// The nine features of the final PPF design, in Table 3 size order.
    pub fn default_set() -> Vec<FeatureKind> {
        vec![
            FeatureKind::PhysAddr,
            FeatureKind::CacheLine,
            FeatureKind::PageAddr,
            FeatureKind::ConfidenceXorPage,
            FeatureKind::PcPathHash,
            FeatureKind::SignatureXorDelta,
            FeatureKind::PcXorDepth,
            FeatureKind::PcXorDelta,
            FeatureKind::Confidence,
        ]
    }

    /// The paper's nine plus [`FeatureKind::SourceId`], for filtering fused
    /// multi-scheme streams (see `ppf_prefetchers::Hybrid`). With a bare
    /// source every candidate indexes row 0 of the source table, so the
    /// extra feature degenerates to a shared bias weight.
    pub fn hybrid_set() -> Vec<FeatureKind> {
        let mut set = Self::default_set();
        set.push(FeatureKind::SourceId);
        set
    }

    /// Index bits for this feature's weight table (paper Table 3 allocation:
    /// high-correlation features get more entries, Sec 5.5).
    pub fn table_bits(self) -> u32 {
        match self {
            FeatureKind::PhysAddr
            | FeatureKind::CacheLine
            | FeatureKind::PageAddr
            | FeatureKind::ConfidenceXorPage => 12,
            FeatureKind::PcPathHash | FeatureKind::SignatureXorDelta => 11,
            FeatureKind::PcXorDepth | FeatureKind::PcXorDelta => 10,
            FeatureKind::Confidence => 7,
            FeatureKind::LastSignature => 12,
            FeatureKind::RawPc => 10,
            FeatureKind::DepthAlone => 4,
            // One row per possible ensemble member (MAX_SOURCES = 8).
            FeatureKind::SourceId => 3,
        }
    }

    /// Entries in this feature's weight table.
    pub fn table_entries(self) -> usize {
        1 << self.table_bits()
    }

    /// Human-readable label (used in the analysis figures).
    pub fn label(self) -> &'static str {
        match self {
            FeatureKind::PhysAddr => "phys_addr",
            FeatureKind::CacheLine => "cache_line",
            FeatureKind::PageAddr => "page_addr",
            FeatureKind::ConfidenceXorPage => "confidence^page",
            FeatureKind::PcPathHash => "pc1^pc2>>1^pc3>>2",
            FeatureKind::SignatureXorDelta => "signature^delta",
            FeatureKind::PcXorDepth => "pc^depth",
            FeatureKind::PcXorDelta => "pc^delta",
            FeatureKind::Confidence => "confidence",
            FeatureKind::LastSignature => "last_signature",
            FeatureKind::RawPc => "raw_pc",
            FeatureKind::DepthAlone => "depth",
            FeatureKind::SourceId => "source_id",
        }
    }

    /// Hashes the inputs into this feature's table index.
    pub fn index(self, f: &FeatureInputs) -> usize {
        (self.hash(f) as usize) & ((1usize << self.table_bits()) - 1)
    }

    /// Every kind's unmasked hash at once, in declaration order (entry
    /// `kind as usize` is `kind.hash(f)`): shared sub-expressions are
    /// computed once and there is no per-feature dispatch. This is what
    /// `Perceptron::index` masks straight into arena positions.
    #[inline]
    pub fn hashes(f: &FeatureInputs) -> [u64; FEATURE_KINDS] {
        let page = f.trigger_addr >> 12;
        let pc = f.trigger_pc >> 2;
        let delta = encode_delta(f.delta);
        [
            f.trigger_addr >> 2,                           // PhysAddr
            f.trigger_addr >> 6,                           // CacheLine
            page,                                          // PageAddr
            page ^ u64::from(f.confidence),                // ConfidenceXorPage
            (f.pc_1 >> 2) ^ (f.pc_2 >> 3) ^ (f.pc_3 >> 4), // PcPathHash
            u64::from(f.signature) ^ delta,                // SignatureXorDelta
            pc ^ u64::from(f.depth),                       // PcXorDepth
            pc ^ delta,                                    // PcXorDelta
            u64::from(f.confidence.min(127)),              // Confidence
            u64::from(f.last_signature),                   // LastSignature
            pc,                                            // RawPc
            u64::from(f.depth),                            // DepthAlone
            u64::from(f.source),                           // SourceId
        ]
    }

    /// The feature's unmasked hash: [`FeatureKind::index`] keeps its low
    /// [`FeatureKind::table_bits`]. This one-feature form is the reference
    /// the tests hold [`FeatureKind::hashes`] to.
    pub fn hash(self, f: &FeatureInputs) -> u64 {
        match self {
            // Three shifted views of the trigger address (Sec 4.2: shifting
            // instead of folding avoids destructive interference).
            FeatureKind::PhysAddr => f.trigger_addr >> 2,
            FeatureKind::CacheLine => f.trigger_addr >> 6,
            FeatureKind::PageAddr => f.trigger_addr >> 12,
            FeatureKind::ConfidenceXorPage => (f.trigger_addr >> 12) ^ u64::from(f.confidence),
            FeatureKind::PcPathHash => (f.pc_1 >> 2) ^ (f.pc_2 >> 3) ^ (f.pc_3 >> 4),
            FeatureKind::SignatureXorDelta => u64::from(f.signature) ^ encode_delta(f.delta),
            FeatureKind::PcXorDepth => (f.trigger_pc >> 2) ^ u64::from(f.depth),
            FeatureKind::PcXorDelta => (f.trigger_pc >> 2) ^ encode_delta(f.delta),
            FeatureKind::Confidence => u64::from(f.confidence.min(127)),
            FeatureKind::LastSignature => u64::from(f.last_signature),
            FeatureKind::RawPc => f.trigger_pc >> 2,
            FeatureKind::DepthAlone => u64::from(f.depth),
            FeatureKind::SourceId => u64::from(f.source),
        }
    }
}

/// Upper bound on features per perceptron — every [`FeatureKind`] variant
/// fits, with headroom. The inference/record/train hot paths carry indices
/// in a fixed `[u16; MAX_FEATURES]` ([`IndexList`]) instead of a heap
/// `Vec`, so evaluating a candidate allocates nothing.
pub const MAX_FEATURES: usize = 16;

/// A fixed-capacity list of per-feature table indices.
///
/// This is the zero-allocation replacement for the `Vec<usize>` that
/// inference used to build per candidate: a 34-byte `Copy` value that
/// lives inline in the Prefetch/Reject table entries, so training can
/// reuse the indices computed at inference time instead of rehashing the
/// features. Indices are `u16`: a weight arena holds at most
/// `MAX_FEATURES × 4,096 = 65,536` positions (`Perceptron::new` asserts
/// it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexList {
    raw: [u16; MAX_FEATURES],
    len: u8,
}

impl IndexList {
    /// An empty list.
    pub const fn new() -> Self {
        Self { raw: [0; MAX_FEATURES], len: 0 }
    }

    /// The first `len` entries of `raw`.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds [`MAX_FEATURES`].
    #[inline]
    pub(crate) fn from_prefix(raw: [u16; MAX_FEATURES], len: usize) -> Self {
        assert!(len <= MAX_FEATURES, "more than {MAX_FEATURES} features");
        Self { raw, len: len as u8 }
    }

    /// Appends an index.
    ///
    /// # Panics
    ///
    /// Panics if the list already holds [`MAX_FEATURES`] indices.
    pub fn push(&mut self, index: u16) {
        assert!((self.len as usize) < MAX_FEATURES, "more than {MAX_FEATURES} features");
        self.raw[self.len as usize] = index;
        self.len += 1;
    }

    /// Number of indices.
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The indices as a slice.
    pub fn as_slice(&self) -> &[u16] {
        &self.raw[..usize::from(self.len)]
    }
}

impl FromIterator<u16> for IndexList {
    fn from_iter<I: IntoIterator<Item = u16>>(iter: I) -> Self {
        let mut list = Self::new();
        for i in iter {
            list.push(i);
        }
        list
    }
}

/// Computes the table index of every feature in `set` without allocating.
/// The filter's hot path skips this list and hashes straight to arena
/// positions (`Perceptron::index`); mapping this list through
/// `Perceptron::globalize` gives the same positions in two passes.
pub fn index_list(set: &[FeatureKind], inputs: &FeatureInputs) -> IndexList {
    set.iter().map(|k| k.index(inputs) as u16).collect()
}

/// Computes the table index of every feature in `set`.
///
/// Heap-allocating convenience for tests and offline analysis; the hot
/// paths use [`index_list`].
pub fn index_all(set: &[FeatureKind], inputs: &FeatureInputs) -> Vec<usize> {
    set.iter().map(|k| k.index(inputs)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FeatureInputs {
        FeatureInputs {
            trigger_addr: 0x12345678,
            trigger_pc: 0x401234,
            pc_1: 0x401230,
            pc_2: 0x40122C,
            pc_3: 0x401228,
            signature: 0x5A5,
            last_signature: 0x2D2,
            confidence: 87,
            delta: -3,
            depth: 4,
            source: 0,
        }
    }

    #[test]
    fn default_set_is_the_papers_nine() {
        let set = FeatureKind::default_set();
        assert_eq!(set.len(), 9);
        // Table 3: 4 tables of 4096, 2 of 2048, 2 of 1024, 1 of 128.
        let mut sizes: Vec<usize> = set.iter().map(|k| k.table_entries()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![128, 1024, 1024, 2048, 2048, 4096, 4096, 4096, 4096]);
    }

    #[test]
    fn indices_within_table() {
        let f = sample();
        for k in FeatureKind::default_set() {
            assert!(k.index(&f) < k.table_entries(), "{} out of range", k.label());
        }
    }

    #[test]
    fn depth_disambiguates_pc() {
        let mut a = sample();
        let mut b = sample();
        a.depth = 1;
        b.depth = 2;
        assert_ne!(FeatureKind::PcXorDepth.index(&a), FeatureKind::PcXorDepth.index(&b));
        // ...while RawPc aliases them (the reason the paper rejected it).
        assert_eq!(FeatureKind::RawPc.index(&a), FeatureKind::RawPc.index(&b));
    }

    #[test]
    fn delta_sign_matters() {
        let mut a = sample();
        let mut b = sample();
        a.delta = 3;
        b.delta = -3;
        assert_ne!(FeatureKind::PcXorDelta.index(&a), FeatureKind::PcXorDelta.index(&b));
        assert_ne!(
            FeatureKind::SignatureXorDelta.index(&a),
            FeatureKind::SignatureXorDelta.index(&b)
        );
    }

    #[test]
    fn confidence_feature_is_direct() {
        let mut f = sample();
        f.confidence = 55;
        assert_eq!(FeatureKind::Confidence.index(&f), 55);
        f.confidence = 100;
        assert_eq!(FeatureKind::Confidence.index(&f), 100);
    }

    #[test]
    fn shifted_address_views_differ() {
        let f = sample();
        let a = FeatureKind::PhysAddr.index(&f);
        let b = FeatureKind::CacheLine.index(&f);
        let c = FeatureKind::PageAddr.index(&f);
        assert!(a != b || b != c, "shifted views should rarely collide");
    }

    #[test]
    fn path_hash_uses_history() {
        let mut a = sample();
        let mut b = sample();
        b.pc_2 = 0x40F00C;
        assert_ne!(FeatureKind::PcPathHash.index(&a), FeatureKind::PcPathHash.index(&b));
        // Identical PCs don't collapse to zero thanks to the shifts.
        a.pc_1 = 0x400004;
        a.pc_2 = 0x400004;
        a.pc_3 = 0x400004;
        assert_ne!(FeatureKind::PcPathHash.index(&a), 0);
    }

    #[test]
    fn index_all_matches_individual() {
        let set = FeatureKind::default_set();
        let f = sample();
        let all = index_all(&set, &f);
        for (k, &i) in set.iter().zip(&all) {
            assert_eq!(k.index(&f), i);
        }
    }

    #[test]
    fn index_list_matches_index_all() {
        let set = FeatureKind::default_set();
        let f = sample();
        let list = index_list(&set, &f);
        let all = index_all(&set, &f);
        assert_eq!(list.len(), all.len());
        for (&a, &b) in list.as_slice().iter().zip(&all) {
            assert_eq!(a as usize, b);
        }
    }

    #[test]
    fn index_list_push_and_bounds() {
        let mut l = IndexList::new();
        assert!(l.is_empty());
        for i in 0..MAX_FEATURES {
            l.push(i as u16);
        }
        assert_eq!(l.len(), MAX_FEATURES);
        assert_eq!(l.as_slice()[MAX_FEATURES - 1], (MAX_FEATURES - 1) as u16);
    }

    #[test]
    #[should_panic(expected = "features")]
    fn index_list_overflow_panics() {
        let mut l = IndexList::new();
        for i in 0..=MAX_FEATURES {
            l.push(i as u16);
        }
    }

    #[test]
    fn hybrid_set_is_the_nine_plus_source_id() {
        let set = FeatureKind::hybrid_set();
        assert_eq!(set.len(), 10);
        assert_eq!(set[..9], FeatureKind::default_set()[..]);
        assert_eq!(set[9], FeatureKind::SourceId);
        assert_eq!(FeatureKind::SourceId.table_entries(), 8);
    }

    #[test]
    fn source_id_feature_is_direct() {
        let mut f = sample();
        assert_eq!(FeatureKind::SourceId.index(&f), 0, "bare sources share row 0");
        f.source = 3;
        assert_eq!(FeatureKind::SourceId.index(&f), 3);
        // The paper's nine never read provenance: indices are unchanged.
        let a = sample();
        for k in FeatureKind::default_set() {
            assert_eq!(k.index(&a), k.index(&f), "{} must ignore source", k.label());
        }
    }

    #[test]
    fn hashes_match_hash_per_kind() {
        let mut f = sample();
        for (n, delta) in [-3i16, 0, 5, -64, 63].into_iter().enumerate() {
            f.delta = delta;
            f.confidence = (n * 25) as u8;
            let all = FeatureKind::hashes(&f);
            for (i, k) in FeatureKind::ALL.into_iter().enumerate() {
                assert_eq!(k as usize, i, "ALL is in declaration order");
                assert_eq!(all[i], k.hash(&f), "{}", k.label());
            }
        }
    }

    #[test]
    fn labels_unique() {
        let mut labels: Vec<&str> = FeatureKind::default_set().iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 9);
    }
}
