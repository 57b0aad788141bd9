//! `Ppf<S>`: the filter wrapped around a lookahead prefetcher, presented to
//! the simulator as an ordinary [`Prefetcher`] (paper Fig. 4).
//!
//! On every L2 demand access the wrapper (1) trains the filter against the
//! access (Prefetch/Reject table feedback), (2) pulls the *unthrottled*
//! candidate stream from the underlying prefetcher, (3) runs inference per
//! candidate and (4) forwards the accepted ones at the fill level the
//! perceptron chose. L2 evictions of unused prefetched lines train the
//! filter downward.

use crate::features::FeatureInputs;
use crate::filter::{Decision, FilterStats, PpfConfig, PpfFilter, MAX_BATCH};
use ppf_prefetchers::{
    depth_window_len, Candidate, Feedback, LookaheadSource, SourceId, MAX_SOURCES,
};
use ppf_sim::{
    AccessContext, EvictionInfo, FillLevel, FilterCounters, Prefetcher, PrefetchRequest,
};

/// Depth buckets tracked by [`PpfStats`] (depths beyond clamp into the
/// last bucket).
pub const DEPTH_BUCKETS: usize = 16;

/// Distinct lookahead depths scored per [`PpfFilter::score_and_record`]
/// call (see `depth_window_len`). Decisions are the same at any window;
/// the value survives because `FilterCounters::batch_window` reports it.
const BATCH_WINDOW: usize = 8;

/// PPF-specific run statistics (Sec 6.1 depth analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PpfStats {
    /// Candidates accepted (either fill level).
    pub accepted: u64,
    /// Sum of accepted candidates' depths.
    pub accepted_depth_sum: u64,
    /// Candidates rejected.
    pub rejected: u64,
    /// Accepted candidates per lookahead depth (bucket = depth - 1).
    pub accepted_by_depth: [u64; DEPTH_BUCKETS],
    /// Rejected candidates per lookahead depth.
    pub rejected_by_depth: [u64; DEPTH_BUCKETS],
    /// Useful outcomes per depth (first demand use of a tracked prefetch).
    pub useful_by_depth: [u64; DEPTH_BUCKETS],
    /// Useful outcomes per originating scheme, resolved from the
    /// issued-prefetch tracking (first-issuer wins). Bare sources land in
    /// bucket 0; hybrids spread by member.
    pub useful_by_source: [u64; MAX_SOURCES],
    /// Useful outcomes whose tracking entry was already displaced, so no
    /// scheme could be credited (the feedback was broadcast).
    pub unattributed_useful: u64,
}

impl Default for PpfStats {
    fn default() -> Self {
        Self {
            accepted: 0,
            accepted_depth_sum: 0,
            rejected: 0,
            accepted_by_depth: [0; DEPTH_BUCKETS],
            rejected_by_depth: [0; DEPTH_BUCKETS],
            useful_by_depth: [0; DEPTH_BUCKETS],
            useful_by_source: [0; MAX_SOURCES],
            unattributed_useful: 0,
        }
    }
}

fn bucket(depth: u8) -> usize {
    (usize::from(depth).saturating_sub(1)).min(DEPTH_BUCKETS - 1)
}

/// The filter's view of one candidate: the trigger, the global PC history
/// before it, and the lookahead metadata.
fn build_inputs(
    ctx: &AccessContext,
    pc_history: &[u64; 3],
    c: &Candidate,
    last_signature: u16,
) -> FeatureInputs {
    FeatureInputs {
        trigger_addr: ctx.addr,
        trigger_pc: c.meta.trigger_pc,
        pc_1: pc_history[0],
        pc_2: pc_history[1],
        pc_3: pc_history[2],
        signature: c.meta.signature,
        last_signature,
        // Boundary clamp: `FeatureInputs.confidence` is documented 0..=100,
        // and an out-of-range value would silently index the wrong row of
        // the 128-entry confidence table. Well-behaved sources already
        // construct via `Candidate::new` (which asserts in debug); this
        // keeps literal-built candidates honest too.
        confidence: c.meta.confidence.min(100),
        delta: c.meta.delta,
        depth: c.meta.depth,
        source: c.meta.source.0,
    }
}

impl PpfStats {
    /// Average lookahead depth of accepted prefetches.
    pub fn average_accepted_depth(&self) -> f64 {
        if self.accepted == 0 {
            return 0.0;
        }
        self.accepted_depth_sum as f64 / self.accepted as f64
    }
}

/// The Perceptron-Based Prefetch Filter over a lookahead prefetcher `S`.
///
/// ```
/// use ppf::Ppf;
/// use ppf_prefetchers::Spp;
/// use ppf_sim::{AccessContext, Prefetcher};
///
/// let mut prefetcher = Ppf::new(Spp::default());
/// let ctx = AccessContext { pc: 0x400, addr: 0x10_0040, is_store: false, l2_hit: false, cycle: 1, core: 0 };
/// let mut requests = Vec::new();
/// prefetcher.on_demand_access(&ctx, &mut requests);
/// // A cold SPP has no pattern yet, so nothing is suggested — but the
/// // filter saw the trigger and is ready to train.
/// assert_eq!(prefetcher.filter_stats().inferences as usize, requests.len());
/// ```
#[derive(Debug, Clone)]
pub struct Ppf<S> {
    source: S,
    filter: PpfFilter,
    // The paper's three global PC trackers (Table 3).
    pc_history: [u64; 3],
    candidate_buf: Vec<Candidate>,
    /// Run statistics.
    pub stats: PpfStats,
}

impl<S: LookaheadSource> Ppf<S> {
    /// Wraps `source` with a default-configured filter.
    pub fn new(source: S) -> Self {
        Self::with_config(source, PpfConfig::default())
    }

    /// Wraps `source` with an explicit filter configuration.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`PpfFilter::new`].
    pub fn with_config(source: S, cfg: PpfConfig) -> Self {
        Self {
            source,
            filter: PpfFilter::new(cfg),
            pc_history: [0; 3],
            candidate_buf: Vec::new(),
            stats: PpfStats::default(),
        }
    }

    /// Borrow of the filter (weights, tables, stats).
    pub fn filter(&self) -> &PpfFilter {
        &self.filter
    }

    /// Mutable borrow of the filter (e.g. to load a weight snapshot).
    pub fn filter_mut(&mut self) -> &mut PpfFilter {
        &mut self.filter
    }

    /// Filter counters.
    pub fn filter_stats(&self) -> FilterStats {
        self.filter.stats
    }

    /// Borrow of the underlying prefetcher.
    pub fn source(&self) -> &S {
        &self.source
    }

    /// Mutable borrow of the underlying prefetcher.
    pub fn source_mut(&mut self) -> &mut S {
        &mut self.source
    }

    /// Resolves address-keyed cache feedback to the provenance recorded for
    /// the issued prefetch, falling back to broadcast when the tracking
    /// entry is gone.
    fn resolve_feedback(&self, addr: u64) -> Feedback {
        match self.filter.tracked_source(addr) {
            Some(src) => Feedback { addr, source: SourceId(src) },
            None => Feedback::unattributed(addr),
        }
    }
}

impl<S: LookaheadSource> Prefetcher for Ppf<S> {
    fn on_demand_access(&mut self, ctx: &AccessContext, out: &mut Vec<PrefetchRequest>) {
        // Feedback first (paper Fig. 5 step 3): the demand address may match
        // a recorded prefetch or a rejected candidate.
        self.filter.train_on_demand(ctx.addr);

        // Pull the unthrottled candidate stream.
        let mut cands = std::mem::take(&mut self.candidate_buf);
        cands.clear();
        self.source.candidates(ctx, &mut cands);

        // Judge the stream one depth-window at a time: the filter scores,
        // commits and records each candidate strictly in order, so
        // emission order and τ-threshold semantics match the per-candidate
        // loop exactly. `last_signature` chains
        // through the lookahead path (the previous step's signature) and
        // depends only on candidate metadata.
        let mut last_signature = cands.first().map_or(0, |c| c.meta.signature);
        let mut start = 0usize;
        while start < cands.len() {
            let window =
                &cands[start..start + depth_window_len(&cands[start..], BATCH_WINDOW, MAX_BATCH)];
            let pc_history = &self.pc_history;
            let stats = &mut self.stats;
            self.filter.score_and_record(
                window.iter().map(|c| {
                    let inputs = build_inputs(ctx, pc_history, c, last_signature);
                    last_signature = c.meta.signature;
                    (c.addr, inputs)
                }),
                |j, decision| {
                    let c = &window[j];
                    let level = match decision {
                        Decision::PrefetchL2 => FillLevel::L2,
                        Decision::PrefetchLlc => FillLevel::Llc,
                        Decision::Reject => {
                            stats.rejected += 1;
                            stats.rejected_by_depth[bucket(c.meta.depth)] += 1;
                            return;
                        }
                    };
                    stats.accepted += 1;
                    stats.accepted_depth_sum += u64::from(c.meta.depth);
                    stats.accepted_by_depth[bucket(c.meta.depth)] += 1;
                    out.push(PrefetchRequest::new(c.addr, level));
                },
            );
            start += window.len();
        }
        self.candidate_buf = cands;

        // Update the global PC trackers *after* using them: they must hold
        // the PCs before the current trigger (paper Sec 4.2).
        if self.pc_history[0] != ctx.pc {
            self.pc_history = [ctx.pc, self.pc_history[0], self.pc_history[1]];
        }
    }

    fn on_useful_prefetch(&mut self, addr: u64) {
        // Resolve provenance from the issued-prefetch tracking *before* any
        // training touches the tables, then forward to the source (SPP's
        // global-accuracy α). Routing by recorded provenance — not by
        // address match inside the source — is what keeps credit with the
        // scheme that actually issued the prefetch when several members of
        // a hybrid predicted the same block.
        let fb = self.resolve_feedback(addr);
        self.source.on_useful_prefetch(fb);
        if let Some(depth) = self.filter.tracked_depth(addr) {
            self.stats.useful_by_depth[bucket(depth)] += 1;
        }
        match fb.source.counter_index() {
            Some(i) => self.stats.useful_by_source[i] += 1,
            None => self.stats.unattributed_useful += 1,
        }
        self.filter.train_on_demand(addr);
    }

    fn on_eviction(&mut self, info: &EvictionInfo) {
        if info.was_prefetch {
            self.filter.train_on_eviction(info.addr, info.was_used);
        }
    }

    fn on_prefetch_fill(&mut self, addr: u64, _level: FillLevel) {
        // Keep the source's global-accuracy denominator honest, crediting
        // the member that issued the fill when provenance is still tracked.
        let fb = self.resolve_feedback(addr);
        self.source.on_prefetch_fill(fb);
    }

    fn on_llc_eviction(&mut self, info: &EvictionInfo) {
        // LLC-directed prefetches never enter the L2, so their negative
        // feedback arrives here. The Prefetch-Table tag match filters out
        // other cores' lines.
        if info.was_prefetch && !info.was_used {
            self.filter.train_on_eviction(info.addr, false);
        }
    }

    fn name(&self) -> &'static str {
        "ppf"
    }

    fn filter_counters(&self) -> FilterCounters {
        let s = self.filter.stats;
        FilterCounters {
            inferences: s.inferences,
            accepted_l2: s.accepted_l2,
            accepted_llc: s.accepted_llc,
            rejected: s.rejected,
            positive_trains: s.positive_trains,
            negative_trains: s.negative_trains,
            false_negative_recoveries: s.false_negative_recoveries,
            replacement_trains: s.replacement_trains,
            batch_window: BATCH_WINDOW as u64,
        }
    }

    fn telemetry_dump(&self) -> String {
        crate::introspect::render_report(&self.filter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppf_prefetchers::CandidateMeta;

    /// A source that proposes two candidates per access: one "good" target
    /// (trigger + 64) and one "bad" target (trigger + 4096·8, distinct page).
    struct TwoFaced;

    impl LookaheadSource for TwoFaced {
        fn candidates(&mut self, ctx: &AccessContext, out: &mut Vec<Candidate>) {
            let meta = |depth, conf, delta| CandidateMeta {
                depth,
                signature: 0x111,
                confidence: conf,
                delta,
                trigger_pc: ctx.pc,
                trigger_addr: ctx.addr,
                source: SourceId::PRIMARY,
            };
            out.push(Candidate { addr: ctx.addr + 64, meta: meta(1, 90, 1) });
            out.push(Candidate { addr: ctx.addr + 4096 * 8, meta: meta(4, 15, 63) });
        }
        fn name(&self) -> &'static str {
            "two-faced"
        }
    }

    fn ctx(pc: u64, addr: u64) -> AccessContext {
        AccessContext { pc, addr, is_store: false, l2_hit: false, cycle: 0, core: 0 }
    }

    #[test]
    fn cold_ppf_forwards_candidates() {
        let mut ppf = Ppf::new(TwoFaced);
        let mut out = Vec::new();
        ppf.on_demand_access(&ctx(0x400, 0x10_0000), &mut out);
        assert_eq!(out.len(), 2, "cold filter accepts everything");
    }

    #[test]
    fn learns_to_reject_the_bad_candidate() {
        let mut ppf = Ppf::new(TwoFaced);
        let mut out = Vec::new();
        for i in 0..400u64 {
            out.clear();
            let addr = 0x10_0000 + i * 64;
            ppf.on_demand_access(&ctx(0x400, addr), &mut out);
            // The +64 candidate is always used (next access lands on it)...
            // that happens naturally through on_demand_access's training.
            // The far candidate is always evicted unused:
            ppf.on_eviction(&EvictionInfo {
                addr: addr + 4096 * 8,
                was_prefetch: true,
                was_used: false,
            });
        }
        out.clear();
        ppf.on_demand_access(&ctx(0x400, 0x20_0000), &mut out);
        assert_eq!(out.len(), 1, "bad candidate must be filtered: {out:?}");
        assert_eq!(out[0].addr, 0x20_0000 + 64);
        assert!(ppf.filter_stats().negative_trains > 0);
        assert!(ppf.stats.rejected > 0);
    }

    #[test]
    fn pc_history_excludes_current_trigger() {
        let mut ppf = Ppf::new(TwoFaced);
        let mut out = Vec::new();
        ppf.on_demand_access(&ctx(0xAAA0, 0x1000), &mut out);
        ppf.on_demand_access(&ctx(0xBBB0, 0x2000), &mut out);
        assert_eq!(ppf.pc_history, [0xBBB0, 0xAAA0, 0]);
    }

    #[test]
    fn average_depth_tracks_accepts() {
        let mut ppf = Ppf::new(TwoFaced);
        let mut out = Vec::new();
        ppf.on_demand_access(&ctx(0x400, 0x5000), &mut out);
        // Cold: both accepted, depths 1 and 4 -> average 2.5.
        assert!((ppf.stats.average_accepted_depth() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn eviction_of_non_prefetch_ignored() {
        let mut ppf = Ppf::new(TwoFaced);
        ppf.on_eviction(&EvictionInfo { addr: 0x9000, was_prefetch: false, was_used: true });
        assert_eq!(ppf.filter_stats().negative_trains, 0);
    }

    #[test]
    fn name_is_ppf() {
        assert_eq!(Ppf::new(TwoFaced).name(), "ppf");
    }

    #[test]
    fn counters_report_the_batch_window() {
        assert_eq!(Ppf::new(TwoFaced).filter_counters().batch_window, BATCH_WINDOW as u64);
    }

    /// A source that pushes one literal candidate per access at a fixed
    /// confidence, bypassing `Candidate::new`'s construction-time clamp.
    struct RawConf(u8);

    impl LookaheadSource for RawConf {
        fn candidates(&mut self, ctx: &AccessContext, out: &mut Vec<Candidate>) {
            out.push(Candidate {
                addr: ctx.addr + 64,
                meta: CandidateMeta {
                    depth: 1,
                    signature: 0x222,
                    confidence: self.0,
                    delta: 1,
                    trigger_pc: ctx.pc,
                    trigger_addr: ctx.addr,
                    source: SourceId::PRIMARY,
                },
            });
        }
        fn name(&self) -> &'static str {
            "raw-conf"
        }
    }

    /// Regression pin: `FeatureInputs.confidence` is documented 0..=100 but
    /// the `LookaheadSource` boundary used to pass raw values through, so an
    /// out-of-range confidence silently indexed the wrong row of the
    /// 128-entry confidence table. The wrapper now clamps at input
    /// construction: a misbehaving source is bit-identical to the same
    /// source clamped to 100.
    #[test]
    fn out_of_range_confidence_clamps_at_the_filter_boundary() {
        let run = |conf: u8| {
            let mut ppf = Ppf::new(RawConf(conf));
            let mut all = Vec::new();
            for i in 0..300u64 {
                let addr = 0x30_0000 + i * 64;
                ppf.on_demand_access(&ctx(0x400, addr), &mut all);
                if i % 3 == 0 {
                    ppf.on_eviction(&EvictionInfo {
                        addr: addr + 64,
                        was_prefetch: true,
                        was_used: false,
                    });
                }
            }
            (all, ppf.filter_stats(), ppf.filter().save_weights())
        };
        assert_eq!(run(250), run(100), "251 candidates must index the conf-100 row");
    }

    /// Counts provenance-routed feedback events (the member schemes of the
    /// hybrid in the mis-attribution pin below).
    struct Counting {
        name: &'static str,
        useful: std::rc::Rc<std::cell::Cell<u32>>,
        fills: std::rc::Rc<std::cell::Cell<u32>>,
    }

    impl LookaheadSource for Counting {
        fn candidates(&mut self, ctx: &AccessContext, out: &mut Vec<Candidate>) {
            // Every member predicts the SAME next block.
            out.push(Candidate::new(
                ctx.addr + 64,
                CandidateMeta {
                    depth: 1,
                    signature: 0x333,
                    confidence: 90,
                    delta: 1,
                    trigger_pc: ctx.pc,
                    trigger_addr: ctx.addr,
                    source: SourceId::PRIMARY,
                },
            ));
        }
        fn on_useful_prefetch(&mut self, _fb: Feedback) {
            self.useful.set(self.useful.get() + 1);
        }
        fn on_prefetch_fill(&mut self, _fb: Feedback) {
            self.fills.set(self.fills.get() + 1);
        }
        fn name(&self) -> &'static str {
            self.name
        }
    }

    /// Bugfix pin for address-only feedback mis-attribution: when two
    /// members of a hybrid (an SPP-like and a BOP-like stream here) predict
    /// the same block, `on_useful_prefetch(addr)` used to credit whichever
    /// source matched the address. Credit must instead follow the recorded
    /// provenance of the issued prefetch — first-issuer wins, exactly one
    /// member credited.
    #[test]
    fn shared_address_credit_goes_to_the_issuing_member() {
        use ppf_prefetchers::Hybrid;
        use std::cell::Cell;
        use std::rc::Rc;

        type Counters = Vec<(Rc<Cell<u32>>, Rc<Cell<u32>>)>;
        let counters: Counters =
            (0..2).map(|_| (Rc::new(Cell::new(0)), Rc::new(Cell::new(0)))).collect();
        let hybrid = Hybrid::new(vec![
            Box::new(Counting {
                name: "spp-like",
                useful: counters[0].0.clone(),
                fills: counters[0].1.clone(),
            }),
            Box::new(Counting {
                name: "bop-like",
                useful: counters[1].0.clone(),
                fills: counters[1].1.clone(),
            }),
        ]);
        let mut ppf = Ppf::new(hybrid);
        let mut out = Vec::new();
        ppf.on_demand_access(&ctx(0x400, 0x10_0000), &mut out);
        // Cold filter accepts both candidates (the simulator's prefetch
        // queue dedups the duplicate address); the tracking table keeps the
        // FIRST issuer's provenance for the shared block.
        assert_eq!(out.len(), 2);
        assert_eq!(ppf.filter().tracked_source(0x10_0040), Some(0));

        // The prefetched block proves useful: exactly the first issuer
        // (member 0) is credited, not both and not the address-matching one.
        ppf.on_useful_prefetch(0x10_0040);
        assert_eq!(counters[0].0.get(), 1, "issuing member must be credited");
        assert_eq!(counters[1].0.get(), 0, "non-issuing member must not be credited");
        assert_eq!(ppf.stats.useful_by_source[0], 1);
        assert_eq!(ppf.stats.useful_by_source[1], 0);
        assert_eq!(ppf.stats.unattributed_useful, 0);

        // Fill feedback routes by the same provenance.
        ppf.on_prefetch_fill(0x10_0040, FillLevel::L2);
        assert_eq!(counters[0].1.get(), 1);
        assert_eq!(counters[1].1.get(), 0);

        // Feedback for an address with no tracking entry broadcasts to all
        // members (the fail-open path) and counts as unattributed.
        ppf.on_useful_prefetch(0x77_0000);
        assert_eq!(counters[0].0.get(), 2);
        assert_eq!(counters[1].0.get(), 1);
        assert_eq!(ppf.stats.unattributed_useful, 1);
    }

    /// A deep lookahead burst: 20 candidates over 12 distinct depths, so
    /// one access spans two depth windows.
    struct Burst;

    impl LookaheadSource for Burst {
        fn candidates(&mut self, ctx: &AccessContext, out: &mut Vec<Candidate>) {
            for k in 0..20u64 {
                out.push(Candidate {
                    addr: ctx.addr + (k + 1) * 64 * (1 + k % 3),
                    meta: CandidateMeta {
                        depth: (k * 3 / 5 + 1) as u8,
                        signature: ((0x100 + k * 37) & 0xfff) as u16,
                        confidence: ((k * 17 + ctx.addr / 64) % 101) as u8,
                        delta: (k % 5) as i16 + 1,
                        trigger_pc: ctx.pc,
                        trigger_addr: ctx.addr,
                        source: SourceId::PRIMARY,
                    },
                });
            }
        }
        fn name(&self) -> &'static str {
            "burst"
        }
    }

    /// `on_demand_access` scores through `score_and_record`; it must
    /// issue the same requests and leave the same counters and weights as
    /// scoring the same candidate stream one `infer_indexed` +
    /// `record_indexed` at a time. Tiny metadata tables make recording
    /// displacement-train mid-window.
    #[test]
    fn demand_access_matches_a_sequential_filter_loop() {
        let tiny =
            PpfConfig { prefetch_table_entries: 8, reject_table_entries: 8, ..PpfConfig::default() };
        let mut ppf = Ppf::with_config(Burst, tiny.clone());
        let mut seq = PpfFilter::new(tiny);
        let mut pc_history = [0u64; 3];
        let (mut got, mut want, mut cands) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..300u64 {
            let access = ctx(0x400 + (i % 5) * 4, 0x10_0000 + i * 192);
            ppf.on_demand_access(&access, &mut got);

            seq.train_on_demand(access.addr);
            cands.clear();
            Burst.candidates(&access, &mut cands);
            let mut last_signature = cands[0].meta.signature;
            for c in &cands {
                let inputs = build_inputs(&access, &pc_history, c, last_signature);
                last_signature = c.meta.signature;
                let (d, sum, idxs) = seq.infer_indexed(&inputs);
                seq.record_indexed(c.addr, inputs, idxs, sum, d);
                match d {
                    Decision::PrefetchL2 => want.push(PrefetchRequest::new(c.addr, FillLevel::L2)),
                    Decision::PrefetchLlc => {
                        want.push(PrefetchRequest::new(c.addr, FillLevel::Llc))
                    }
                    Decision::Reject => {}
                }
            }
            if pc_history[0] != access.pc {
                pc_history = [access.pc, pc_history[0], pc_history[1]];
            }

            let evicted = cands[(i % 20) as usize].addr;
            ppf.on_eviction(&EvictionInfo { addr: evicted, was_prefetch: true, was_used: false });
            seq.train_on_eviction(evicted, false);
        }
        assert!(seq.stats.replacement_trains > 0, "tiny tables must displace-train");
        assert!(seq.stats.rejected > 0, "training must reject some candidates");
        assert_eq!(got, want);
        assert_eq!(ppf.filter_stats(), seq.stats);
        assert_eq!(ppf.filter().save_weights(), seq.save_weights());
    }
}
