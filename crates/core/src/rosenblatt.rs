//! The related-work comparison point: a basic Rosenblatt perceptron filter
//! (Wang & Luo, *Data cache prefetching with perceptron learning*, 2017 —
//! paper Sec 7.4).
//!
//! Unlike PPF's hashed-perceptron organization, this design keeps **one**
//! weight vector over binary input features (bits of the candidate's
//! address, trigger PC and delta) and trains with classic error-correction:
//! weights move only when the prediction was wrong. It filters an
//! *unmodified* baseline prefetcher — there is no unthrottled candidate
//! stream, no fill-level banding, and no reject table, so false negatives
//! are never recovered.
//!
//! The PPF paper's observation, which the experiment binary
//! `related_rosenblatt` reproduces: this design raises accuracy but *lowers*
//! coverage, so its performance impact is small.

use crate::features::FeatureInputs;
use ppf_prefetchers::{Candidate, Feedback, LookaheadSource};
use ppf_sim::{AccessContext, EvictionInfo, FillLevel, Prefetcher, PrefetchRequest};

/// Number of binary inputs: 16 address bits + 12 PC bits + 7 delta bits
/// + bias.
const INPUTS: usize = 16 + 12 + 7 + 1;

/// Configuration of the Rosenblatt filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RosenblattConfig {
    /// Decision threshold: accept when the dot product is at or above it.
    pub threshold: i32,
    /// Weight clamp (symmetric).
    pub weight_limit: i16,
    /// Tracking-table entries for outcome attribution.
    pub table_entries: usize,
}

impl Default for RosenblattConfig {
    fn default() -> Self {
        Self { threshold: 0, weight_limit: 64, table_entries: 1024 }
    }
}

#[derive(Debug, Clone, Copy)]
struct Tracked {
    tag: u16,
    bits: [bool; INPUTS],
    predicted_useful: bool,
    resolved: bool,
}

/// Counters for the Rosenblatt filter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RosenblattStats {
    /// Candidates evaluated.
    pub inferences: u64,
    /// Candidates accepted.
    pub accepted: u64,
    /// Candidates rejected.
    pub rejected: u64,
    /// Error-correction updates applied.
    pub corrections: u64,
}

/// A classic Rosenblatt perceptron prefetch filter over a lookahead source.
#[derive(Debug, Clone)]
pub struct RosenblattFilter<S> {
    source: S,
    cfg: RosenblattConfig,
    weights: [i16; INPUTS],
    table: Vec<Option<Tracked>>,
    /// Counter block.
    pub stats: RosenblattStats,
    candidate_buf: Vec<Candidate>,
}

impl<S: LookaheadSource> RosenblattFilter<S> {
    /// Wraps `source` with a default-configured filter.
    pub fn new(source: S) -> Self {
        Self::with_config(source, RosenblattConfig::default())
    }

    /// Wraps `source` with an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if `table_entries` is not a power of two.
    pub fn with_config(source: S, cfg: RosenblattConfig) -> Self {
        assert!(cfg.table_entries.is_power_of_two(), "table size must be a power of two");
        Self {
            source,
            weights: [0; INPUTS],
            table: vec![None; cfg.table_entries],
            stats: RosenblattStats::default(),
            candidate_buf: Vec::new(),
            cfg,
        }
    }

    /// Borrow of the weight vector (for analysis).
    pub fn weights(&self) -> &[i16] {
        &self.weights
    }

    fn featurize(inputs: &FeatureInputs) -> [bool; INPUTS] {
        let mut bits = [false; INPUTS];
        let mut k = 0;
        for b in 0..16 {
            bits[k] = (inputs.trigger_addr >> (6 + b)) & 1 == 1;
            k += 1;
        }
        for b in 0..12 {
            bits[k] = (inputs.trigger_pc >> (2 + b)) & 1 == 1;
            k += 1;
        }
        let mag = inputs.delta.unsigned_abs() as u64 | if inputs.delta < 0 { 0x40 } else { 0 };
        for b in 0..7 {
            bits[k] = (mag >> b) & 1 == 1;
            k += 1;
        }
        bits[k] = true; // bias input
        bits
    }

    fn dot(&self, bits: &[bool; INPUTS]) -> i32 {
        self.weights
            .iter()
            .zip(bits)
            .map(|(&w, &x)| if x { i32::from(w) } else { -i32::from(w) })
            .sum()
    }

    fn correct(&mut self, bits: &[bool; INPUTS], toward_useful: bool) {
        self.stats.corrections += 1;
        let limit = self.cfg.weight_limit;
        for (w, &x) in self.weights.iter_mut().zip(bits) {
            // Error-correction rule: w += y * x, with x in {-1, +1}.
            let dir = if x == toward_useful { 1 } else { -1 };
            *w = (*w + dir).clamp(-limit, limit);
        }
    }

    fn slot(&self, block: u64) -> (usize, u16) {
        let idx = (block as usize) & (self.table.len() - 1);
        let tag = ((block >> self.table.len().trailing_zeros()) & 0x3F) as u16;
        (idx, tag)
    }

    fn resolve(&mut self, addr: u64, useful: bool) {
        let (idx, tag) = self.slot(addr >> 6);
        if let Some(t) = self.table[idx] {
            if t.tag == tag && !t.resolved {
                if t.predicted_useful != useful {
                    self.correct(&t.bits, useful);
                }
                if let Some(t) = &mut self.table[idx] {
                    t.resolved = true;
                }
            }
        }
    }
}

impl<S: LookaheadSource + 'static> Prefetcher for RosenblattFilter<S> {
    fn on_demand_access(&mut self, ctx: &AccessContext, out: &mut Vec<PrefetchRequest>) {
        // A demand access to a tracked candidate resolves it as useful.
        self.resolve(ctx.addr, true);

        let mut cands = std::mem::take(&mut self.candidate_buf);
        cands.clear();
        self.source.candidates(ctx, &mut cands);
        for c in &cands {
            // Filtering an *unmodified* baseline: only depth-1 suggestions
            // (what the throttled prefetcher would have issued first) are
            // considered; the deep speculative stream stays off.
            if c.meta.depth > 4 {
                continue;
            }
            let inputs = FeatureInputs {
                trigger_addr: ctx.addr,
                trigger_pc: c.meta.trigger_pc,
                delta: c.meta.delta,
                ..FeatureInputs::default()
            };
            let bits = Self::featurize(&inputs);
            let sum = self.dot(&bits);
            self.stats.inferences += 1;
            let accept = sum >= self.cfg.threshold;
            let (idx, tag) = self.slot(c.addr >> 6);
            self.table[idx] =
                Some(Tracked { tag, bits, predicted_useful: accept, resolved: false });
            if accept {
                self.stats.accepted += 1;
                out.push(PrefetchRequest::new(c.addr, FillLevel::L2));
            } else {
                self.stats.rejected += 1;
            }
        }
        self.candidate_buf = cands;
    }

    fn on_useful_prefetch(&mut self, addr: u64) {
        // No provenance tracking here: the classic design predates source
        // attribution, so feedback reaches the source unattributed.
        self.source.on_useful_prefetch(Feedback::unattributed(addr));
        self.resolve(addr, true);
    }

    fn on_eviction(&mut self, info: &EvictionInfo) {
        if info.was_prefetch && !info.was_used {
            self.resolve(info.addr, false);
        }
    }

    fn on_llc_eviction(&mut self, info: &EvictionInfo) {
        if info.was_prefetch && !info.was_used {
            self.resolve(info.addr, false);
        }
    }

    fn on_prefetch_fill(&mut self, addr: u64, _level: FillLevel) {
        self.source.on_prefetch_fill(Feedback::unattributed(addr));
    }

    fn name(&self) -> &'static str {
        "rosenblatt"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppf_prefetchers::{CandidateMeta, SourceId};

    struct OneAhead;
    impl LookaheadSource for OneAhead {
        fn candidates(&mut self, ctx: &AccessContext, out: &mut Vec<Candidate>) {
            out.push(Candidate {
                addr: ctx.addr + 64,
                meta: CandidateMeta {
                    depth: 1,
                    signature: 0,
                    confidence: 50,
                    delta: 1,
                    trigger_pc: ctx.pc,
                    trigger_addr: ctx.addr,
                    source: SourceId::PRIMARY,
                },
            });
        }
        fn name(&self) -> &'static str {
            "one-ahead"
        }
    }

    fn ctx(pc: u64, addr: u64) -> AccessContext {
        AccessContext { pc, addr, is_store: false, l2_hit: false, cycle: 0, core: 0 }
    }

    #[test]
    fn cold_filter_accepts() {
        let mut f = RosenblattFilter::new(OneAhead);
        let mut out = Vec::new();
        f.on_demand_access(&ctx(0x400, 0x1000), &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn error_correction_learns_to_reject_bad_pc() {
        let mut f = RosenblattFilter::new(OneAhead);
        let mut out = Vec::new();
        // PC 0xBAD0's candidates always evict unused.
        for i in 0..200u64 {
            out.clear();
            let addr = 0x40_0000 + i * 128;
            f.on_demand_access(&ctx(0xBAD0, addr), &mut out);
            f.on_eviction(&EvictionInfo {
                addr: addr + 64,
                was_prefetch: true,
                was_used: false,
            });
        }
        out.clear();
        f.on_demand_access(&ctx(0xBAD0, 0x80_0000), &mut out);
        assert!(out.is_empty(), "repeatedly useless PC must be filtered");
        assert!(f.stats.corrections > 0);
    }

    #[test]
    fn corrections_only_on_mispredictions() {
        let mut f = RosenblattFilter::new(OneAhead);
        let mut out = Vec::new();
        // Useful candidates with a cold (accepting) filter: prediction
        // correct, no corrections.
        for i in 0..50u64 {
            out.clear();
            let addr = 0x10_0000 + i * 64;
            f.on_demand_access(&ctx(0x400, addr), &mut out);
            f.on_useful_prefetch(addr + 64);
        }
        assert_eq!(f.stats.corrections, 0);
    }

    #[test]
    fn deep_candidates_are_ignored() {
        struct DeepOnly;
        impl LookaheadSource for DeepOnly {
            fn candidates(&mut self, ctx: &AccessContext, out: &mut Vec<Candidate>) {
                out.push(Candidate {
                    addr: ctx.addr + 64,
                    meta: CandidateMeta {
                        depth: 9,
                        signature: 0,
                        confidence: 50,
                        delta: 1,
                        trigger_pc: ctx.pc,
                        trigger_addr: ctx.addr,
                        source: SourceId::PRIMARY,
                    },
                });
            }
            fn name(&self) -> &'static str {
                "deep"
            }
        }
        let mut f = RosenblattFilter::new(DeepOnly);
        let mut out = Vec::new();
        f.on_demand_access(&ctx(0x400, 0x1000), &mut out);
        assert!(out.is_empty(), "unmodified-baseline filtering has no deep stream");
    }

    #[test]
    fn weights_stay_clamped() {
        let mut f = RosenblattFilter::with_config(
            OneAhead,
            RosenblattConfig { weight_limit: 4, ..RosenblattConfig::default() },
        );
        let mut out = Vec::new();
        for i in 0..500u64 {
            out.clear();
            let addr = 0x20_0000 + i * 128;
            f.on_demand_access(&ctx(0x500, addr), &mut out);
            f.on_eviction(&EvictionInfo { addr: addr + 64, was_prefetch: true, was_used: false });
        }
        assert!(f.weights().iter().all(|&w| (-4..=4).contains(&w)));
    }
}
