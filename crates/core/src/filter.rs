//! The perceptron filter proper: inference, recording, and training
//! (paper Sec 3.1, Figure 5).

use crate::features::{FeatureInputs, FeatureKind, IndexList};
use crate::introspect::DecisionTelemetry;
use crate::perceptron::{Perceptron, WeightList};
use crate::tables::{MetaTable, TableEntry};
use ppf_prefetchers::MAX_SOURCES;
use ppf_sim::addr::block_number;

/// Most candidates the [`Ppf`](crate::Ppf) wrapper hands to one
/// [`PpfFilter::score_and_record`] call (its depth window's cap). Sized
/// above SPP's `max_candidates` (40) so a full lookahead burst fits in one
/// call; `score_and_record` itself takes streams of any length.
pub const MAX_BATCH: usize = 64;

/// Inference outcome for one candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Sum ≥ τ_hi: high confidence, fill into the L2.
    PrefetchL2,
    /// τ_lo ≤ sum < τ_hi: moderate confidence, fill into the larger LLC.
    PrefetchLlc,
    /// Sum < τ_lo: predicted useless, do not prefetch.
    Reject,
}

/// PPF configuration.
///
/// Threshold defaults follow the authors' released ChampSim implementation
/// (the paper gives the mechanism but not the constants); see DESIGN.md §5.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PpfConfig {
    /// τ_hi: at or above, prefetch into L2.
    pub tau_hi: i32,
    /// τ_lo: at or above (but below τ_hi), prefetch into LLC; below, reject.
    pub tau_lo: i32,
    /// θ_p: positive-side training saturation — correct positives train only
    /// while the sum is below this.
    pub theta_p: i32,
    /// θ_n: negative-side training saturation — correct negatives train only
    /// while the sum is above this.
    pub theta_n: i32,
    /// Prefetch Table entries.
    pub prefetch_table_entries: usize,
    /// Reject Table entries.
    pub reject_table_entries: usize,
    /// Two-stage replacement training: a Prefetch-Table entry displaced
    /// before being used moves to the Reject Table (probation) instead of
    /// vanishing; negative training fires only when it falls off *both*
    /// tables unused, and a demand meanwhile recovers it positively. The
    /// paper trains on cache evictions only; at this crate's trace densities
    /// the 1,024-entry table turns over several times faster than the L2, so
    /// eviction feedback alone starves the negative side (see DESIGN.md §5).
    pub train_on_replacement: bool,
    /// The feature set (defaults to the paper's nine).
    pub features: Vec<FeatureKind>,
    /// Keep the most recent training events for offline analysis (0 = off).
    pub event_log_capacity: usize,
}

impl Default for PpfConfig {
    fn default() -> Self {
        Self {
            tau_hi: -5,
            tau_lo: -15,
            theta_p: 90,
            theta_n: -80,
            prefetch_table_entries: 1024,
            reject_table_entries: 1024,
            train_on_replacement: true,
            features: FeatureKind::default_set(),
            event_log_capacity: 0,
        }
    }
}

impl PpfConfig {
    /// Configuration for filtering a fused multi-scheme stream (see
    /// `ppf_prefetchers::Hybrid`): the default thresholds and tables with
    /// [`FeatureKind::hybrid_set`], so the perceptron carries a per-source
    /// trust table on top of the paper's nine features.
    pub fn hybrid() -> Self {
        Self { features: FeatureKind::hybrid_set(), ..Self::default() }
    }
}

/// Filter counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Candidates evaluated.
    pub inferences: u64,
    /// Accepted toward the L2.
    pub accepted_l2: u64,
    /// Accepted toward the LLC.
    pub accepted_llc: u64,
    /// Rejected.
    pub rejected: u64,
    /// Upward training events (useful prefetches / recovered rejects).
    pub positive_trains: u64,
    /// Downward training events (useless prefetches evicted).
    pub negative_trains: u64,
    /// Demand hits on rejected candidates (false negatives recovered).
    pub false_negative_recoveries: u64,
    /// Negative trainings triggered by table replacement (a prefetch entry
    /// displaced before any demand used it).
    pub replacement_trains: u64,
    /// Accepted candidates (either fill level) per originating scheme,
    /// indexed by `FeatureInputs::source` (clamped to the last bucket).
    /// Bare sources land entirely in bucket 0; hybrids spread by member.
    pub accepted_by_source: [u64; MAX_SOURCES],
    /// Rejected candidates per originating scheme.
    pub rejected_by_source: [u64; MAX_SOURCES],
}

/// One logged training event: the weights read at inference time for each
/// feature, and whether the prefetch turned out useful. Feeds the paper's
/// Sec 5.5 Pearson methodology. `Copy` (inline [`WeightList`]), so logging
/// into the preallocated ring never touches the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainingEvent {
    /// Weight per feature at the moment of training.
    pub weights: WeightList,
    /// Ground truth: the candidate was useful.
    pub useful: bool,
}

/// The Perceptron Prefetch Filter.
///
/// ```
/// use ppf::{Decision, FeatureInputs, PpfConfig, PpfFilter};
///
/// let mut filter = PpfFilter::new(PpfConfig::default());
/// let inputs = FeatureInputs { trigger_addr: 0x1000, confidence: 80, delta: 1, depth: 1, ..Default::default() };
///
/// // 1. Inference: a cold filter lets the candidate through to the L2.
/// let (decision, sum) = filter.infer(&inputs);
/// assert_eq!(decision, Decision::PrefetchL2);
///
/// // 2. Record it; 3-4. train when feedback arrives.
/// filter.record(0x1040, inputs, sum, decision);
/// filter.train_on_demand(0x1040); // the prefetch proved useful
/// assert_eq!(filter.stats.positive_trains, 1);
/// ```
#[derive(Debug, Clone)]
pub struct PpfFilter {
    cfg: PpfConfig,
    perceptron: Perceptron,
    prefetch_table: MetaTable,
    reject_table: MetaTable,
    /// Counter block.
    pub stats: FilterStats,
    telemetry: DecisionTelemetry,
    event_log: Vec<TrainingEvent>,
    event_cursor: usize,
}

impl PpfFilter {
    /// Builds a filter from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the feature set is empty, thresholds are inconsistent
    /// (`tau_lo > tau_hi`), or table sizes are not powers of two.
    pub fn new(cfg: PpfConfig) -> Self {
        assert!(!cfg.features.is_empty(), "need at least one feature");
        assert!(cfg.tau_lo <= cfg.tau_hi, "tau_lo must not exceed tau_hi");
        let sizes: Vec<usize> = cfg.features.iter().map(|k| k.table_entries()).collect();
        Self {
            perceptron: Perceptron::new(&sizes),
            prefetch_table: MetaTable::new(cfg.prefetch_table_entries),
            reject_table: MetaTable::new(cfg.reject_table_entries),
            stats: FilterStats::default(),
            telemetry: DecisionTelemetry::from_env(),
            // Full capacity up front: ring pushes never reallocate, keeping
            // the event-logging path allocation-free after construction.
            event_log: Vec::with_capacity(cfg.event_log_capacity),
            event_cursor: 0,
            cfg,
        }
    }

    /// Borrow of the configuration.
    pub fn config(&self) -> &PpfConfig {
        &self.cfg
    }

    /// Borrow of the weight bank (Fig. 6/7 analysis).
    pub fn perceptron(&self) -> &Perceptron {
        &self.perceptron
    }

    /// The feature set in table order.
    pub fn features(&self) -> &[FeatureKind] {
        &self.cfg.features
    }

    /// Logged training events (empty unless
    /// [`PpfConfig::event_log_capacity`] was set), in buffer order: oldest
    /// first until the log fills, then the slots overwrite in a cycle, so
    /// after it wraps the slice starts at some arbitrary point of the
    /// history. Callers that aggregate (Figs. 7 and 8) do not depend on
    /// the order.
    pub fn training_events(&self) -> &[TrainingEvent] {
        &self.event_log
    }

    /// Borrow of the decision-telemetry block (contribution attribution,
    /// threshold-margin histograms; see [`crate::introspect`]).
    pub fn telemetry(&self) -> &DecisionTelemetry {
        &self.telemetry
    }

    /// Enables or disables decision telemetry programmatically, overriding
    /// the `PPF_OBSERVE` resolution done at construction (tests use this
    /// so they never race on process-global environment). Forced off when
    /// the `observe` feature is not compiled in.
    pub fn set_telemetry_enabled(&mut self, enabled: bool) {
        self.telemetry.set_enabled(enabled);
    }

    /// Snapshots the trained weights (see [`Perceptron::save_weights`]).
    pub fn save_weights(&self) -> Vec<u8> {
        self.perceptron.save_weights()
    }

    /// Restores weights from a snapshot taken with the same feature set.
    ///
    /// # Errors
    ///
    /// Propagates [`Perceptron::load_weights`] errors.
    pub fn load_weights(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.perceptron.load_weights(bytes)
    }

    /// The lookahead depth recorded for a tracked (accepted) prefetch of
    /// this address, if any.
    pub fn tracked_depth(&self, addr: u64) -> Option<u8> {
        self.prefetch_table.lookup(block_number(addr)).map(|e| e.depth)
    }

    /// The provenance (`FeatureInputs::source`) recorded for a tracked
    /// (accepted) prefetch of this address, if any. This is how the wrapper
    /// resolves address-keyed cache feedback back to the originating scheme
    /// of a composed source: attribution is *first-issuer wins*, because
    /// [`MetaTable::record`] keeps a pending same-tag entry over a later
    /// re-record of the same block.
    pub fn tracked_source(&self, addr: u64) -> Option<u8> {
        self.prefetch_table.lookup(block_number(addr)).map(|e| e.source)
    }

    /// FNV-1a digest of the weight arena (see
    /// [`Perceptron::weights_digest`]).
    pub fn weights_digest(&self) -> u64 {
        self.perceptron.weights_digest()
    }

    /// Takes an *epoch-barrier checkpoint*: snapshots the weights and clears
    /// both metadata tables.
    ///
    /// A filter restored from a weight checkpoint necessarily starts with
    /// empty Prefetch/Reject tables (their in-flight entries died with the
    /// process). Clearing the live filter's tables at the same boundary
    /// makes recovery *bit-exact by construction*: the post-barrier decision
    /// and training stream of an uninterrupted filter is identical to that
    /// of one restarted from the checkpoint. The cost is dropping feedback
    /// attribution for candidates in flight at the barrier — bounded by the
    /// checkpoint cadence, and fail-open (unattributed candidates simply
    /// don't train).
    pub fn checkpoint_barrier(&mut self) -> Vec<u8> {
        let weights = self.perceptron.save_weights();
        self.prefetch_table.clear();
        self.reject_table.clear();
        weights
    }

    /// Warm-starts the filter from a [`PpfFilter::checkpoint_barrier`]
    /// snapshot: loads the weights and clears the metadata tables, restoring
    /// exactly the post-barrier state of the filter that took the snapshot.
    ///
    /// # Errors
    ///
    /// Propagates [`Perceptron::load_weights`] errors (the filter is left
    /// untouched on error).
    pub fn warm_start(&mut self, weights: &[u8]) -> Result<(), String> {
        self.perceptron.load_weights(weights)?;
        self.prefetch_table.clear();
        self.reject_table.clear();
        Ok(())
    }

    /// Hashes every feature straight to its weight-arena position — the
    /// indices the whole inference/record/train cycle reuses. Inline
    /// ([`IndexList`]), so no heap allocation.
    #[inline]
    fn index(&self, inputs: &FeatureInputs) -> IndexList {
        self.perceptron.index(&self.cfg.features, inputs)
    }

    /// Step 1, inference: sums the feature-selected weights and thresholds
    /// the result against τ_hi / τ_lo.
    ///
    /// Also returns the weight-arena indices so [`PpfFilter::record_indexed`]
    /// can store them without rehashing (the zero-allocation fast path the
    /// [`Ppf`](crate::Ppf) wrapper uses).
    pub fn infer_indexed(&mut self, inputs: &FeatureInputs) -> (Decision, i32, IndexList) {
        let idxs = self.index(inputs);
        let sum = self.perceptron.sum_at(&idxs);
        let decision = self.judge(sum, &idxs, inputs.source);
        (decision, sum, idxs)
    }

    /// Thresholds an inference sum and commits the decision: counters
    /// (aggregate and per-source) and the telemetry hook.
    #[inline]
    fn judge(&mut self, sum: i32, idxs: &IndexList, source: u8) -> Decision {
        self.stats.inferences += 1;
        let src = usize::from(source).min(MAX_SOURCES - 1);
        let decision = if sum >= self.cfg.tau_hi {
            self.stats.accepted_l2 += 1;
            self.stats.accepted_by_source[src] += 1;
            Decision::PrefetchL2
        } else if sum >= self.cfg.tau_lo {
            self.stats.accepted_llc += 1;
            self.stats.accepted_by_source[src] += 1;
            Decision::PrefetchLlc
        } else {
            self.stats.rejected += 1;
            self.stats.rejected_by_source[src] += 1;
            Decision::Reject
        };
        // Double-gated: without the feature the cfg! folds the whole hook
        // away; with it, a disabled block costs one branch.
        if cfg!(feature = "observe") && self.telemetry.enabled() {
            self.telemetry.record(
                &self.perceptron,
                idxs,
                sum,
                decision,
                self.cfg.tau_hi,
                self.cfg.tau_lo,
            );
        }
        decision
    }

    /// Steps 1-2 for a stream of `(target, inputs)` candidates: scores,
    /// commits and records each one in candidate order, calling
    /// `on_decision(position, decision)` after each record.
    ///
    /// A candidate is scored only after the previous one is recorded, so
    /// it sees any weights that recording displacement-trained (see
    /// [`PpfFilter::record_indexed`]): the decisions, counters, and trained
    /// weights are those of one [`PpfFilter::infer_indexed`] +
    /// [`PpfFilter::record_indexed`] call per candidate.
    pub fn score_and_record<I>(&mut self, candidates: I, mut on_decision: impl FnMut(usize, Decision))
    where
        I: IntoIterator<Item = (u64, FeatureInputs)>,
    {
        for (position, (target, inputs)) in candidates.into_iter().enumerate() {
            let (decision, sum, idxs) = self.infer_indexed(&inputs);
            self.record_indexed(target, inputs, idxs, sum, decision);
            on_decision(position, decision);
        }
    }

    /// Step 1, inference, without surfacing the indices (convenience; see
    /// [`PpfFilter::infer_indexed`]).
    pub fn infer(&mut self, inputs: &FeatureInputs) -> (Decision, i32) {
        let (decision, sum, _) = self.infer_indexed(inputs);
        (decision, sum)
    }

    /// Step 2, recording: stores the candidate's metadata — including the
    /// arena indices from [`PpfFilter::infer_indexed`] — in the Prefetch
    /// Table (accepted) or the Reject Table (rejected).
    pub fn record_indexed(
        &mut self,
        target_addr: u64,
        inputs: FeatureInputs,
        indices: IndexList,
        sum: i32,
        d: Decision,
    ) {
        let block = block_number(target_addr);
        match d {
            Decision::PrefetchL2 | Decision::PrefetchLlc => {
                let displaced =
                    self.prefetch_table.record(block, inputs.depth, inputs.source, indices, sum, true);
                if self.cfg.train_on_replacement {
                    if let Some(old) = displaced {
                        if !old.useful {
                            // Probation: park the displaced entry in the
                            // Reject Table. A demand recovers it positively;
                            // falling off that table too is the negative
                            // signal.
                            self.park_displaced(old);
                        }
                    }
                }
            }
            Decision::Reject => {
                let displaced = self.reject_table.record(
                    block,
                    inputs.depth,
                    inputs.source,
                    indices,
                    sum,
                    false,
                );
                if self.cfg.train_on_replacement {
                    if let Some(old) = displaced {
                        self.negative_train_displaced(&old);
                    }
                }
            }
        }
    }

    /// Step 2, recording, re-deriving the indices from `inputs`
    /// (convenience for callers that used [`PpfFilter::infer`]; still
    /// allocation-free).
    pub fn record(&mut self, target_addr: u64, inputs: FeatureInputs, sum: i32, d: Decision) {
        let indices = self.index(&inputs);
        self.record_indexed(target_addr, inputs, indices, sum, d);
    }

    /// Steps 3–4 on a demand access: a hit in the Prefetch Table is a
    /// correct positive (train up while under θ_p); a hit in the Reject
    /// Table is a recovered false negative (always train up).
    pub fn train_on_demand(&mut self, addr: u64) {
        let block = block_number(addr);
        let theta_p = self.cfg.theta_p;

        // Training reuses the arena indices computed at inference time (no
        // feature rehash, no allocation).
        let mut positive: Option<(IndexList, bool)> = None;
        if let Some(e) = self.prefetch_table.lookup_mut(block) {
            if !e.useful {
                e.useful = true;
                positive = Some((e.indices, false));
            }
        } else if let Some(e) = self.reject_table.take(block) {
            positive = Some((e.indices, true));
        }

        if let Some((idxs, was_rejected)) = positive {
            let sum = self.perceptron.sum_at(&idxs);
            self.log_event(&idxs, true);
            if was_rejected {
                self.stats.false_negative_recoveries += 1;
                self.stats.positive_trains += 1;
                self.perceptron.train_at(&idxs, true);
            } else if sum < theta_p {
                self.stats.positive_trains += 1;
                self.perceptron.train_at(&idxs, true);
            }
        }
    }

    /// Steps 3–4 on an L2 eviction: a prefetched line leaving the cache
    /// unused means the filter should have rejected it (train down; always,
    /// since it is a misprediction — but saturate at θ_n if it was judged
    /// correctly negative before).
    pub fn train_on_eviction(&mut self, addr: u64, was_used: bool) {
        let block = block_number(addr);
        let Some(e) = self.prefetch_table.take(block) else { return };
        if was_used || e.useful {
            // Correct positive already credited at demand time.
            return;
        }
        let sum = self.perceptron.sum_at(&e.indices);
        self.log_event(&e.indices, false);
        if sum > self.cfg.theta_n {
            self.stats.negative_trains += 1;
            self.perceptron.train_at(&e.indices, false);
        }
    }

    /// Moves a displaced, unused Prefetch-Table entry into the Reject Table
    /// (probation). Whatever *that* displaces unused trains negative.
    fn park_displaced(&mut self, old: TableEntry) {
        let displaced = self.reject_table.record(
            old.target_block,
            old.depth,
            old.source,
            old.indices,
            old.sum,
            old.perc_decision,
        );
        if let Some(evicted) = displaced {
            self.negative_train_displaced(&evicted);
        }
    }

    /// Negative training for an entry that aged out of both tables unused.
    fn negative_train_displaced(&mut self, old: &TableEntry) {
        // Only candidates the filter *accepted* are evidence of a wrong
        // positive; aged-out rejected candidates already got their verdict.
        if !old.perc_decision {
            return;
        }
        let s = self.perceptron.sum_at(&old.indices);
        self.log_event(&old.indices, false);
        if s > self.cfg.theta_n {
            self.stats.negative_trains += 1;
            self.stats.replacement_trains += 1;
            self.perceptron.train_at(&old.indices, false);
        }
    }

    fn log_event(&mut self, idxs: &IndexList, useful: bool) {
        if self.cfg.event_log_capacity == 0 {
            return;
        }
        let ev = TrainingEvent { weights: self.perceptron.weights_at(idxs), useful };
        if self.event_log.len() < self.cfg.event_log_capacity {
            self.event_log.push(ev);
        } else {
            self.event_log[self.event_cursor] = ev;
            self.event_cursor = (self.event_cursor + 1) % self.cfg.event_log_capacity;
        }
    }
}

impl Default for PpfFilter {
    fn default() -> Self {
        Self::new(PpfConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(addr: u64, conf: u8) -> FeatureInputs {
        FeatureInputs {
            trigger_addr: addr,
            trigger_pc: 0x400100,
            confidence: conf,
            delta: 1,
            depth: 1,
            ..FeatureInputs::default()
        }
    }

    #[test]
    fn cold_filter_accepts_into_l2() {
        // Zero weights sum to 0 ≥ τ_hi (-5): a cold PPF lets SPP through —
        // essential for bootstrap.
        let mut f = PpfFilter::default();
        let (d, sum) = f.infer(&inputs(0x1000, 80));
        assert_eq!(sum, 0);
        assert_eq!(d, Decision::PrefetchL2);
    }

    #[test]
    fn negative_training_flips_to_reject() {
        let mut f = PpfFilter::default();
        let i = inputs(0x2000, 10);
        // Repeatedly: record an accepted prefetch, then evict it unused.
        for _ in 0..20 {
            let (d, sum) = f.infer(&i);
            f.record(0x2000, i, sum, d);
            f.train_on_eviction(0x2000, false);
        }
        let (d, sum) = f.infer(&i);
        assert!(sum < -15, "sum {sum} should be deeply negative");
        assert_eq!(d, Decision::Reject);
        assert!(f.stats.negative_trains > 0);
    }

    #[test]
    fn reject_table_recovers_false_negatives() {
        let mut f = PpfFilter::default();
        let i = inputs(0x3000, 10);
        // Drive the filter negative.
        for _ in 0..20 {
            let (d, sum) = f.infer(&i);
            f.record(0x3000, i, sum, d);
            f.train_on_eviction(0x3000, false);
        }
        assert_eq!(f.infer(&i).0, Decision::Reject);
        // Now the workload changes: the rejected candidate is demanded.
        for _ in 0..40 {
            let (d, sum) = f.infer(&i);
            f.record(0x3000, i, sum, d);
            f.train_on_demand(0x3000);
        }
        assert!(f.stats.false_negative_recoveries > 0);
        let (d, _) = f.infer(&i);
        assert_ne!(d, Decision::Reject, "reject-table training must recover");
    }

    #[test]
    fn positive_training_saturates_at_theta_p() {
        let mut f = PpfFilter::default();
        let i = inputs(0x4000, 90);
        for _ in 0..200 {
            let (d, sum) = f.infer(&i);
            f.record(0x4000, i, sum, d);
            f.train_on_demand(0x4000);
        }
        let (_, sum) = f.infer(&i);
        // Trained only while sum < θ_p: one step past at most.
        assert!(sum <= f.config().theta_p + 9, "sum {sum} exceeded θ_p ceiling");
        assert!(sum > 0);
    }

    #[test]
    fn useful_entries_train_once() {
        let mut f = PpfFilter::default();
        let i = inputs(0x5000, 50);
        let (d, sum) = f.infer(&i);
        f.record(0x5000, i, sum, d);
        f.train_on_demand(0x5000);
        let trains = f.stats.positive_trains;
        // Second demand to the same block: entry already marked useful.
        f.train_on_demand(0x5000);
        assert_eq!(f.stats.positive_trains, trains);
    }

    #[test]
    fn eviction_of_used_prefetch_does_not_train_down() {
        let mut f = PpfFilter::default();
        let i = inputs(0x6000, 50);
        let (d, sum) = f.infer(&i);
        f.record(0x6000, i, sum, d);
        f.train_on_demand(0x6000); // used
        f.train_on_eviction(0x6000, true);
        assert_eq!(f.stats.negative_trains, 0);
    }

    #[test]
    fn fill_level_band() {
        let cfg = PpfConfig { tau_hi: 5, tau_lo: -5, ..PpfConfig::default() };
        let mut f = PpfFilter::new(cfg);
        // Cold sum = 0 lands between the thresholds -> LLC.
        let (d, _) = f.infer(&inputs(0x7000, 50));
        assert_eq!(d, Decision::PrefetchLlc);
    }

    #[test]
    fn event_log_is_bounded_ring() {
        // Shared feature indices drive the sum negative quickly, so only the
        // first few candidates are accepted (and can later log an eviction
        // event) before the filter starts rejecting — capacity 2 is enough
        // to exercise the ring replacement.
        let cfg = PpfConfig { event_log_capacity: 2, ..PpfConfig::default() };
        let mut f = PpfFilter::new(cfg);
        let mut logged = 0;
        for n in 0..10u64 {
            let a = 0x8000 + n * 64;
            let i = inputs(a, 30);
            let (d, sum) = f.infer(&i);
            f.record(a, i, sum, d);
            if d != Decision::Reject {
                logged += 1;
            }
            f.train_on_eviction(a, false);
        }
        assert!(logged >= 3, "need enough events to wrap the ring, got {logged}");
        assert_eq!(f.training_events().len(), 2);
        assert!(f.training_events().iter().all(|e| !e.useful));
        assert_eq!(f.training_events()[0].weights.len(), 9);
    }

    #[test]
    fn training_events_are_in_buffer_order_after_wrap() {
        let cfg = PpfConfig { event_log_capacity: 3, ..PpfConfig::default() };
        let mut f = PpfFilter::new(cfg);
        // Five events into three slots: three useful demands, then two
        // unused evictions.
        for (n, useful) in [true, true, true, false, false].into_iter().enumerate() {
            let a = 0x10_0000 + n as u64 * 64;
            let i = inputs(a, 80);
            let (d, sum) = f.infer(&i);
            assert_ne!(d, Decision::Reject);
            f.record(a, i, sum, d);
            if useful {
                f.train_on_demand(a);
            } else {
                f.train_on_eviction(a, false);
            }
        }
        let order: Vec<bool> = f.training_events().iter().map(|e| e.useful).collect();
        // Events 4 and 5 overwrote slots 0 and 1; slot 2 still holds event
        // 3. Oldest first would read [true, false, false].
        assert_eq!(order, [false, false, true]);
    }

    #[test]
    fn tracked_depth_and_source_come_from_the_first_record() {
        let mut f = PpfFilter::new(PpfConfig::hybrid());
        let mut i = inputs(0xB000, 80);
        (i.depth, i.source) = (5, 2);
        f.score_and_record([(0xB040, i)], |_, d| assert_ne!(d, Decision::Reject));
        assert_eq!((f.tracked_depth(0xB040), f.tracked_source(0xB040)), (Some(5), Some(2)));
        // A re-suggestion of the pending block keeps the first record.
        (i.depth, i.source) = (1, 0);
        f.score_and_record([(0xB040, i)], |_, _| {});
        assert_eq!((f.tracked_depth(0xB040), f.tracked_source(0xB040)), (Some(5), Some(2)));
        assert_eq!(f.tracked_depth(0xB080), None);
    }

    #[test]
    fn stats_track_decisions() {
        let mut f = PpfFilter::default();
        f.infer(&inputs(0x9000, 10));
        assert_eq!(f.stats.inferences, 1);
        assert_eq!(f.stats.accepted_l2, 1);
    }

    #[test]
    fn per_source_counters_follow_provenance() {
        let mut f = PpfFilter::new(PpfConfig::hybrid());
        let i0 = inputs(0xA000, 80);
        let mut i1 = inputs(0xA040, 80);
        i1.source = 1;
        let mut far = inputs(0xA080, 80);
        far.source = 250; // out of range: clamps to the last bucket
        f.infer(&i0);
        f.infer(&i1);
        f.infer(&i1);
        f.infer(&far);
        assert_eq!(f.stats.accepted_by_source[0], 1);
        assert_eq!(f.stats.accepted_by_source[1], 2);
        assert_eq!(f.stats.accepted_by_source[MAX_SOURCES - 1], 1);
        assert_eq!(f.stats.rejected_by_source, [0; MAX_SOURCES]);

        // The batched path attributes identically.
        let mut b = PpfFilter::new(PpfConfig::hybrid());
        let window = [i0, i1, i1, far];
        b.score_and_record(window.iter().map(|&i| (i.trigger_addr, i)), |_, _| {});
        assert_eq!(b.stats, f.stats);
    }

    #[test]
    #[should_panic(expected = "tau_lo must not exceed tau_hi")]
    fn inconsistent_thresholds_rejected() {
        let cfg = PpfConfig { tau_lo: 10, tau_hi: -10, ..PpfConfig::default() };
        PpfFilter::new(cfg);
    }

    /// Batched scoring must reproduce the sequential infer/record loop
    /// exactly — including when recording one candidate displacement-trains
    /// the weights before the next is judged. Tiny metadata tables make
    /// displacement constant.
    #[test]
    fn batched_path_matches_sequential_with_mid_batch_training() {
        let tiny = PpfConfig {
            prefetch_table_entries: 8,
            reject_table_entries: 8,
            ..PpfConfig::default()
        };
        let mut seq = PpfFilter::new(tiny.clone());
        let mut bat = PpfFilter::new(tiny);
        let stream: Vec<(u64, FeatureInputs)> = (0..400u64)
            .map(|n| {
                let addr = 0x10_000 + (n * 64) % 4096 + (n % 7) * 0x10_000;
                (addr, inputs(addr, (n % 100) as u8))
            })
            .collect();
        for window in stream.chunks(11) {
            // Sequential reference.
            for &(addr, inp) in window {
                let (d, sum, idxs) = seq.infer_indexed(&inp);
                seq.record_indexed(addr, inp, idxs, sum, d);
            }
            // Batched path.
            bat.score_and_record(window.iter().copied(), |_, _| {});
            // Occasional eviction feedback so training fires on both sides.
            for &(addr, _) in window.iter().step_by(3) {
                seq.train_on_eviction(addr, false);
                bat.train_on_eviction(addr, false);
            }
        }
        assert!(seq.stats.replacement_trains > 0, "tiny tables must displace-train");
        assert_eq!(seq.stats, bat.stats);
        assert_eq!(seq.save_weights(), bat.save_weights());
    }

    /// Drives a filter through a deterministic infer/record/feedback stream
    /// and folds every decision into a digest.
    fn drive_stream(f: &mut PpfFilter, lo: u64, hi: u64) -> u64 {
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for n in lo..hi {
            let addr = 0x40_000 + (n * 64) % 16_384 + (n % 5) * 0x20_000;
            let i = inputs(addr, (n % 100) as u8);
            let (d, sum, idxs) = f.infer_indexed(&i);
            f.record_indexed(addr, i, idxs, sum, d);
            digest ^= (d as u64).wrapping_add(sum as u64).rotate_left((n % 63) as u32);
            digest = digest.wrapping_mul(0x100_0000_01b3);
            if n % 3 == 0 {
                f.train_on_demand(addr);
            }
            if n % 4 == 1 {
                f.train_on_eviction(addr, false);
            }
        }
        digest
    }

    #[test]
    fn checkpoint_barrier_makes_warm_start_bit_exact() {
        // Uninterrupted filter: stream A, barrier, stream B.
        let mut live = PpfFilter::default();
        drive_stream(&mut live, 0, 500);
        let snapshot = live.checkpoint_barrier();
        let live_digest_at_barrier = live.weights_digest();
        let live_decisions = drive_stream(&mut live, 500, 1000);

        // Restarted filter: warm-start from the snapshot, stream B.
        let mut restarted = PpfFilter::default();
        restarted.warm_start(&snapshot).expect("snapshot restores");
        assert_eq!(restarted.weights_digest(), live_digest_at_barrier);
        let restarted_decisions = drive_stream(&mut restarted, 500, 1000);

        assert_eq!(live_decisions, restarted_decisions, "post-barrier decision streams diverge");
        assert_eq!(live.weights_digest(), restarted.weights_digest());
        assert_eq!(live.save_weights(), restarted.save_weights());
    }

    #[test]
    fn weights_digest_tracks_training() {
        let mut f = PpfFilter::default();
        let d0 = f.weights_digest();
        assert_eq!(d0, PpfFilter::default().weights_digest(), "cold digests agree");
        let i = inputs(0x2000, 10);
        let (d, sum) = f.infer(&i);
        f.record(0x2000, i, sum, d);
        f.train_on_eviction(0x2000, false);
        assert_ne!(f.weights_digest(), d0, "training must move the digest");
    }

    #[test]
    fn warm_start_rejects_bad_snapshots_untouched() {
        let mut f = PpfFilter::default();
        let before = f.weights_digest();
        assert!(f.warm_start(&[0u8; 3]).is_err());
        assert_eq!(f.weights_digest(), before);
    }
}
