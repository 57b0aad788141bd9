//! The lookahead-prefetcher interface PPF filters.
//!
//! PPF (paper Sec 3.2) sits on *candidate streams*: a lookahead prefetcher
//! exposes each suggested prefetch together with the metadata PPF's features
//! need — speculation depth, the signature that produced it, the prefetcher's
//! own confidence, and the predicted delta. [`LookaheadSource`] is that
//! contract; [`crate::Spp`] implements it, and any other lookahead prefetcher
//! can too.
//!
//! Candidates carry *provenance*: a [`SourceId`] naming which scheme inside a
//! composed ensemble (see [`crate::Hybrid`]) produced them. Feedback events
//! ([`Feedback`]) carry the same id back, so useful/fill credit reaches the
//! originating scheme rather than whichever source's address happened to
//! match first.

use ppf_sim::AccessContext;

/// Maximum number of member schemes a composed source may carry. Bounds the
/// fixed-size per-source counter arrays in the filter and its wrapper.
pub const MAX_SOURCES: usize = 8;

/// Identifies which scheme inside a composed ensemble produced a candidate.
///
/// Bare (non-hybrid) sources are implicitly [`SourceId::PRIMARY`];
/// [`crate::Hybrid`] tags each member's candidates with its position in the
/// member list. [`SourceId::UNKNOWN`] marks feedback whose originating scheme
/// could not be resolved (e.g. the issued-prefetch tracking entry was already
/// evicted) — composed sources broadcast such events to every member.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SourceId(pub u8);

impl SourceId {
    /// The id every bare (single-scheme) source carries.
    pub const PRIMARY: SourceId = SourceId(0);
    /// Sentinel for feedback that could not be attributed to a scheme.
    pub const UNKNOWN: SourceId = SourceId(u8::MAX);

    /// Index into a `len`-member ensemble, or `None` for [`Self::UNKNOWN`]
    /// and out-of-range ids (both mean "broadcast / unattributed").
    pub fn member_index(self, len: usize) -> Option<usize> {
        let i = usize::from(self.0);
        (self != Self::UNKNOWN && i < len).then_some(i)
    }

    /// Index into the fixed [`MAX_SOURCES`]-wide counter arrays, or `None`
    /// for [`Self::UNKNOWN`].
    pub fn counter_index(self) -> Option<usize> {
        (self != Self::UNKNOWN).then(|| usize::from(self.0).min(MAX_SOURCES - 1))
    }
}

/// Metadata accompanying one prefetch candidate (the fields PPF's features
/// consume; cf. paper Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateMeta {
    /// Lookahead iteration that produced the candidate (1 = non-speculative).
    pub depth: u8,
    /// Signature under which the delta was predicted.
    pub signature: u16,
    /// The prefetcher's own path confidence, 0..=100.
    pub confidence: u8,
    /// Predicted block delta (within-page, signed).
    pub delta: i16,
    /// PC of the instruction that triggered the chain.
    pub trigger_pc: u64,
    /// Address of the demand access that triggered the chain.
    pub trigger_addr: u64,
    /// Which scheme produced the candidate ([`SourceId::PRIMARY`] for bare
    /// sources; [`crate::Hybrid`] overwrites this with the member index).
    pub source: SourceId,
}

/// One suggested prefetch with metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Block-aligned target byte address.
    pub addr: u64,
    /// Feature metadata.
    pub meta: CandidateMeta,
}

impl Candidate {
    /// Builds a candidate, enforcing the [`CandidateMeta::confidence`]
    /// contract (0..=100) at construction: debug builds assert, release
    /// builds clamp. Out-of-range confidences would otherwise silently index
    /// the wrong row of the 128-entry confidence weight table.
    pub fn new(addr: u64, meta: CandidateMeta) -> Candidate {
        debug_assert!(
            meta.confidence <= 100,
            "candidate confidence {} out of range 0..=100 (source {:?})",
            meta.confidence,
            meta.source,
        );
        let mut meta = meta;
        meta.confidence = meta.confidence.min(100);
        Candidate { addr, meta }
    }
}

/// A feedback event routed back to a candidate's originating scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Feedback {
    /// Block-aligned byte address of the prefetched line.
    pub addr: u64,
    /// Provenance resolved from issued-prefetch tracking, or
    /// [`SourceId::UNKNOWN`] when the tracking entry is gone.
    pub source: SourceId,
}

impl Feedback {
    /// Feedback with unresolved provenance (broadcast to all members).
    pub fn unattributed(addr: u64) -> Feedback {
        Feedback { addr, source: SourceId::UNKNOWN }
    }
}

/// A lookahead prefetcher that can run *unthrottled*, exposing every
/// candidate (down to its internal confidence floor) for an external filter
/// to judge.
pub trait LookaheadSource {
    /// Produces unthrottled candidates for a demand access. Implementations
    /// should push candidates in lookahead order (shallow depth first).
    fn candidates(&mut self, ctx: &AccessContext, out: &mut Vec<Candidate>);

    /// Feedback: a previously suggested prefetch proved useful (used by
    /// SPP's global-accuracy scaling). `fb.source` carries the provenance of
    /// the issued prefetch so composed sources can credit the right member.
    fn on_useful_prefetch(&mut self, fb: Feedback) {
        let _ = fb;
    }

    /// Feedback: a prefetch fill completed. Drives the denominator of SPP's
    /// global accuracy α — without it the path confidence never decays and
    /// the unthrottled stream floods.
    fn on_prefetch_fill(&mut self, fb: Feedback) {
        let _ = fb;
    }

    /// Display name of the underlying prefetcher.
    fn name(&self) -> &'static str;
}

/// How many leading candidates of `cands` form one *depth window*: a run
/// spanning at most `max_depths` *distinct* depth values, capped at
/// `max_cands` candidates. PPF's wrapper feeds one window per
/// `PpfFilter::score_and_record` call, so this is purely a scheduling
/// boundary — candidates are still judged in stream order within and across
/// windows.
///
/// Distinctness is over the *set* of depth values, not consecutive runs:
/// hybrid interleaving legitimately revisits a depth (source A depth 1,
/// source B depth 1, source A depth 2, …), and counting each revisit as a
/// new level would collapse windows to near-singletons under fusion. A
/// revisited depth therefore extends the current window for free.
///
/// Returns 0 only for an empty slice, so callers always make progress.
///
/// # Panics
///
/// Panics if `max_depths` or `max_cands` is zero.
pub fn depth_window_len(cands: &[Candidate], max_depths: usize, max_cands: usize) -> usize {
    assert!(max_depths >= 1 && max_cands >= 1, "window limits must be at least 1");
    // 256-bit seen-set over the u8 depth space; no allocation.
    let mut seen = [0u64; 4];
    let mut depths_seen = 0usize;
    for (i, c) in cands.iter().enumerate() {
        if i >= max_cands {
            return i;
        }
        let d = usize::from(c.meta.depth);
        let (word, bit) = (d >> 6, d & 63);
        if seen[word] >> bit & 1 == 0 {
            depths_seen += 1;
            if depths_seen > max_depths {
                return i;
            }
            seen[word] |= 1 << bit;
        }
    }
    cands.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed;
    impl LookaheadSource for Fixed {
        fn candidates(&mut self, ctx: &AccessContext, out: &mut Vec<Candidate>) {
            out.push(Candidate {
                addr: ctx.addr + 64,
                meta: CandidateMeta {
                    depth: 1,
                    signature: 0x123,
                    confidence: 80,
                    delta: 1,
                    trigger_pc: ctx.pc,
                    trigger_addr: ctx.addr,
                    source: SourceId::PRIMARY,
                },
            });
        }
        fn name(&self) -> &'static str {
            "fixed"
        }
    }

    fn cand(depth: u8) -> Candidate {
        Candidate {
            addr: 0x1000,
            meta: CandidateMeta {
                depth,
                signature: 0,
                confidence: 50,
                delta: 1,
                trigger_pc: 0,
                trigger_addr: 0,
                source: SourceId::PRIMARY,
            },
        }
    }

    #[test]
    fn depth_window_spans_distinct_depth_values() {
        let cands: Vec<Candidate> =
            [1, 1, 1, 2, 2, 3, 4, 4, 4, 4, 5].iter().map(|&d| cand(d)).collect();
        assert_eq!(depth_window_len(&cands, 1, 64), 3, "one depth level");
        assert_eq!(depth_window_len(&cands, 2, 64), 5);
        assert_eq!(depth_window_len(&cands, 4, 64), 10);
        assert_eq!(depth_window_len(&cands, 8, 64), cands.len(), "window covers all");
        assert_eq!(depth_window_len(&cands, 8, 4), 4, "candidate cap binds first");
        assert_eq!(depth_window_len(&[], 8, 64), 0, "empty stream");
    }

    #[test]
    fn depth_revisit_does_not_open_a_new_level() {
        // Hybrid interleaving revisits depths: a revisit extends the window
        // instead of counting as a fresh level.
        let zigzag: Vec<Candidate> = [1, 2, 1].iter().map(|&d| cand(d)).collect();
        assert_eq!(depth_window_len(&zigzag, 2, 64), 3, "revisit of depth 1 is free");
        assert_eq!(depth_window_len(&zigzag, 1, 64), 1, "depth 2 still opens level 2");
        // Two interleaved sources walking depths together.
        let fused: Vec<Candidate> = [1, 1, 2, 2, 1, 3, 3].iter().map(|&d| cand(d)).collect();
        assert_eq!(depth_window_len(&fused, 2, 64), 5, "stops at first depth-3");
        assert_eq!(depth_window_len(&fused, 3, 64), fused.len());
        // The candidate cap still binds regardless of revisits.
        assert_eq!(depth_window_len(&fused, 3, 4), 4);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_window_rejected() {
        depth_window_len(&[], 0, 64);
    }

    #[test]
    fn candidate_new_clamps_confidence_in_release() {
        // In release builds Candidate::new clamps silently; in debug it
        // asserts (pinned separately below).
        let c = Candidate::new(0x40, CandidateMeta {
            depth: 1,
            signature: 0,
            confidence: 100,
            delta: 1,
            trigger_pc: 0,
            trigger_addr: 0,
            source: SourceId::PRIMARY,
        });
        assert_eq!(c.meta.confidence, 100);
        #[cfg(not(debug_assertions))]
        {
            let c = Candidate::new(0x40, CandidateMeta {
                depth: 1,
                signature: 0,
                confidence: 250,
                delta: 1,
                trigger_pc: 0,
                trigger_addr: 0,
                source: SourceId::PRIMARY,
            });
            assert_eq!(c.meta.confidence, 100, "release builds clamp");
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "out of range")]
    fn candidate_new_asserts_out_of_range_confidence_in_debug() {
        let _ = Candidate::new(0x40, CandidateMeta {
            depth: 1,
            signature: 0,
            confidence: 250,
            delta: 1,
            trigger_pc: 0,
            trigger_addr: 0,
            source: SourceId::PRIMARY,
        });
    }

    #[test]
    fn source_id_indexing() {
        assert_eq!(SourceId(0).member_index(3), Some(0));
        assert_eq!(SourceId(2).member_index(3), Some(2));
        assert_eq!(SourceId(3).member_index(3), None, "out of range broadcasts");
        assert_eq!(SourceId::UNKNOWN.member_index(3), None);
        assert_eq!(SourceId::UNKNOWN.counter_index(), None);
        assert_eq!(SourceId(0).counter_index(), Some(0));
        assert_eq!(SourceId(7).counter_index(), Some(7));
        assert_eq!(SourceId(9).counter_index(), Some(MAX_SOURCES - 1), "clamped into range");
    }

    #[test]
    fn trait_object_usable() {
        let mut src: Box<dyn LookaheadSource> = Box::new(Fixed);
        let ctx = AccessContext { pc: 7, addr: 0x1000, is_store: false, l2_hit: true, cycle: 0, core: 0 };
        let mut out = Vec::new();
        src.candidates(&ctx, &mut out);
        src.on_useful_prefetch(Feedback::unattributed(0x1040));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].meta.trigger_pc, 7);
        assert_eq!(out[0].meta.source, SourceId::PRIMARY);
        assert_eq!(src.name(), "fixed");
    }
}
