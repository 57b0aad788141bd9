//! Perceptron introspection: who is deciding, and how close the calls are.
//!
//! Three views into a trained filter (paper Sec 5.5 / Fig. 6 territory):
//!
//! * **Weight saturation** — per feature, how many weights sit pinned at
//!   the 5-bit rails ([`WEIGHT_MIN`]/[`WEIGHT_MAX`]). A table that is mostly
//!   saturated has run out of dynamic range; one that is mostly zero is not
//!   participating in decisions. Computed on demand from the weight arena
//!   ([`weight_saturation`]) — nothing is recorded on the hot path.
//! * **Contribution attribution** — at decision time each feature's weight
//!   is accumulated into an accept- or reject-side total
//!   ([`DecisionTelemetry`]), so [`render_report`] can show the mean
//!   contribution each feature made to the sums that crossed (or missed)
//!   the thresholds.
//! * **Margin histograms** — the distribution of `sum − τ_hi` and
//!   `sum − τ_lo` at decision time. Mass piled up just below a threshold
//!   means many near-misses: those candidates are one training event away
//!   from flipping.
//!
//! Recording is double-gated exactly like the simulator's hooks: without
//! the `observe` cargo feature the guard in
//! [`PpfFilter::infer_indexed`](crate::PpfFilter::infer_indexed) folds to
//! `false` at compile time, and at runtime `PPF_OBSERVE=intervals` must
//! enable it
//! (or a test calls
//! [`PpfFilter::set_telemetry_enabled`](crate::PpfFilter::set_telemetry_enabled)).
//! All recording state is fixed-size arrays, so the telemetry-enabled hot
//! path still allocates nothing — the counting-allocator test covers it.

use crate::features::{FeatureKind, IndexList, MAX_FEATURES};
use crate::filter::{Decision, PpfFilter};
use crate::perceptron::{Perceptron, WEIGHT_MAX, WEIGHT_MIN};
use ppf_sim::observe;

/// Buckets in each threshold-margin histogram.
pub const MARGIN_BUCKETS: usize = 16;

/// Margin units per bucket.
const MARGIN_WIDTH: i32 = 4;

/// Margins below `-MARGIN_SPAN` clamp into the first bucket, margins at or
/// above `+MARGIN_SPAN - MARGIN_WIDTH`... the last.
const MARGIN_SPAN: i32 = (MARGIN_BUCKETS as i32 / 2) * MARGIN_WIDTH;

/// Maps a threshold margin (`sum − τ`) to its histogram bucket. Buckets are
/// `MARGIN_WIDTH` wide, centred so bucket `MARGIN_BUCKETS/2` starts at
/// margin 0; the first and last buckets absorb everything beyond the span.
fn margin_bucket(margin: i32) -> usize {
    (margin + MARGIN_SPAN).div_euclid(MARGIN_WIDTH).clamp(0, MARGIN_BUCKETS as i32 - 1) as usize
}

/// Human-readable range label for one margin bucket.
fn margin_bucket_label(bucket: usize) -> String {
    let lo = bucket as i32 * MARGIN_WIDTH - MARGIN_SPAN;
    if bucket == 0 {
        format!("<={:+}", lo + MARGIN_WIDTH - 1)
    } else if bucket == MARGIN_BUCKETS - 1 {
        format!(">={lo:+}")
    } else {
        format!("{:+}..{:+}", lo, lo + MARGIN_WIDTH - 1)
    }
}

/// Decision-time telemetry recorded by
/// [`PpfFilter::infer_indexed`](crate::PpfFilter::infer_indexed) when
/// enabled: per-feature contribution attribution and threshold-margin
/// histograms. Fixed-size state only — recording never allocates.
#[derive(Debug, Clone)]
pub struct DecisionTelemetry {
    enabled: bool,
    accepts: u64,
    rejects: u64,
    accept_contrib: [i64; MAX_FEATURES],
    reject_contrib: [i64; MAX_FEATURES],
    hi_margin: [u64; MARGIN_BUCKETS],
    lo_margin: [u64; MARGIN_BUCKETS],
}

impl DecisionTelemetry {
    /// Telemetry off; recording is a no-op.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            accepts: 0,
            rejects: 0,
            accept_contrib: [0; MAX_FEATURES],
            reject_contrib: [0; MAX_FEATURES],
            hi_margin: [0; MARGIN_BUCKETS],
            lo_margin: [0; MARGIN_BUCKETS],
        }
    }

    /// Enabled by the `intervals` token of `PPF_OBSERVE`, like the
    /// simulator's interval snapshots; always disabled without the
    /// `observe` feature.
    pub fn from_env() -> Self {
        let mut t = Self::disabled();
        t.set_enabled(observe::from_env().interval != 0);
        t
    }

    /// Whether decisions are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Enables or disables recording. Forced off when the `observe`
    /// feature is not compiled in, so the guard in the inference hot path
    /// stays statically false and the hook folds away.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = cfg!(feature = "observe") && enabled;
    }

    /// Decisions recorded that accepted the candidate (either fill level).
    pub fn accepts(&self) -> u64 {
        self.accepts
    }

    /// Decisions recorded that rejected the candidate.
    pub fn rejects(&self) -> u64 {
        self.rejects
    }

    /// Summed weight contribution per feature over accepted decisions.
    pub fn accept_contrib(&self) -> &[i64; MAX_FEATURES] {
        &self.accept_contrib
    }

    /// Summed weight contribution per feature over rejected decisions.
    pub fn reject_contrib(&self) -> &[i64; MAX_FEATURES] {
        &self.reject_contrib
    }

    /// Histogram of `sum − τ_hi` at decision time.
    pub fn hi_margin(&self) -> &[u64; MARGIN_BUCKETS] {
        &self.hi_margin
    }

    /// Histogram of `sum − τ_lo` at decision time.
    pub fn lo_margin(&self) -> &[u64; MARGIN_BUCKETS] {
        &self.lo_margin
    }

    /// Records one decision: attributes each feature's weight to the
    /// accept or reject side and buckets both threshold margins.
    #[inline]
    pub fn record(
        &mut self,
        perceptron: &Perceptron,
        indices: &IndexList,
        sum: i32,
        decision: Decision,
        tau_hi: i32,
        tau_lo: i32,
    ) {
        let contrib = if decision == Decision::Reject {
            self.rejects += 1;
            &mut self.reject_contrib
        } else {
            self.accepts += 1;
            &mut self.accept_contrib
        };
        for (f, &g) in indices.as_slice().iter().enumerate() {
            contrib[f] += i64::from(perceptron.weight_at(g));
        }
        self.hi_margin[margin_bucket(sum - tau_hi)] += 1;
        self.lo_margin[margin_bucket(sum - tau_lo)] += 1;
    }
}

/// Weight-saturation summary for one feature's table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaturationRow {
    /// The feature.
    pub feature: FeatureKind,
    /// Table entries.
    pub entries: usize,
    /// Weights pinned at [`WEIGHT_MIN`].
    pub at_min: usize,
    /// Weights pinned at [`WEIGHT_MAX`].
    pub at_max: usize,
    /// Weights that have moved off zero.
    pub nonzero: usize,
}

impl SaturationRow {
    /// Fraction of the table pinned at either rail.
    pub fn saturated_fraction(&self) -> f64 {
        (self.at_min + self.at_max) as f64 / self.entries as f64
    }
}

/// Scans the weight arena and summarises saturation per feature (the
/// paper's Fig. 6 raw material). On-demand and allocating — cold paths
/// only.
pub fn weight_saturation(filter: &PpfFilter) -> Vec<SaturationRow> {
    filter
        .features()
        .iter()
        .enumerate()
        .map(|(f, &feature)| {
            let weights = filter.perceptron().feature_weights(f);
            SaturationRow {
                feature,
                entries: weights.len(),
                at_min: weights.iter().filter(|&&w| w == WEIGHT_MIN).count(),
                at_max: weights.iter().filter(|&&w| w == WEIGHT_MAX).count(),
                nonzero: weights.iter().filter(|&&w| w != 0).count(),
            }
        })
        .collect()
}

/// Renders the full introspection report: weight saturation, decision
/// attribution, margin histograms, and the Reject-Table recovery counters.
/// This backs [`Ppf`](crate::Ppf)'s `telemetry_dump` for the simulator's
/// diagnostic paths (invariant violations, end-of-run reporting).
pub fn render_report(filter: &PpfFilter) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "ppf introspection");

    let _ = writeln!(out, "  weight saturation (rails {WEIGHT_MIN}/{WEIGHT_MAX}):");
    let _ = writeln!(
        out,
        "    {:<20} {:>7} {:>7} {:>7} {:>8} {:>6}",
        "feature", "entries", "at_min", "at_max", "nonzero", "sat%"
    );
    for row in weight_saturation(filter) {
        let _ = writeln!(
            out,
            "    {:<20} {:>7} {:>7} {:>7} {:>8} {:>5.1}%",
            row.feature.label(),
            row.entries,
            row.at_min,
            row.at_max,
            row.nonzero,
            row.saturated_fraction() * 100.0
        );
    }

    let t = filter.telemetry();
    let decisions = t.accepts() + t.rejects();
    if decisions > 0 {
        let _ = writeln!(
            out,
            "  decision attribution ({} accepts, {} rejects):",
            t.accepts(),
            t.rejects()
        );
        let _ = writeln!(
            out,
            "    {:<20} {:>12} {:>12}",
            "feature", "mean(accept)", "mean(reject)"
        );
        for (f, feature) in filter.features().iter().enumerate() {
            let mean = |total: i64, n: u64| {
                if n == 0 {
                    0.0
                } else {
                    total as f64 / n as f64
                }
            };
            let _ = writeln!(
                out,
                "    {:<20} {:>12.3} {:>12.3}",
                feature.label(),
                mean(t.accept_contrib()[f], t.accepts()),
                mean(t.reject_contrib()[f], t.rejects())
            );
        }
        for (name, hist) in [("sum-tau_hi", t.hi_margin()), ("sum-tau_lo", t.lo_margin())] {
            let _ = write!(out, "  margin {name}:");
            for (b, &count) in hist.iter().enumerate() {
                if count > 0 {
                    let _ = write!(out, " {}:{}", margin_bucket_label(b), count);
                }
            }
            out.push('\n');
        }
    } else {
        let _ = writeln!(
            out,
            "  decision telemetry: no decisions recorded \
             (build with --features observe and set PPF_OBSERVE=intervals)"
        );
    }

    let s = &filter.stats;
    // Per-source attribution only means something for fused (hybrid)
    // streams: bare sources put every decision in slot 0, so the block is
    // suppressed to keep single-source reports byte-stable.
    let multi_source = s
        .accepted_by_source
        .iter()
        .zip(&s.rejected_by_source)
        .skip(1)
        .any(|(&a, &r)| a + r > 0);
    if multi_source {
        let _ = writeln!(out, "  per-source decisions:");
        let _ = writeln!(out, "    {:<8} {:>10} {:>10} {:>8}", "source", "accepted", "rejected", "acc%");
        for (i, (&a, &r)) in
            s.accepted_by_source.iter().zip(&s.rejected_by_source).enumerate()
        {
            if a + r > 0 {
                let _ = writeln!(
                    out,
                    "    {i:<8} {a:>10} {r:>10} {:>7.1}%",
                    a as f64 / (a + r) as f64 * 100.0
                );
            }
        }
    }
    let _ = writeln!(
        out,
        "  reject-table recoveries: {} (of {} rejects); replacement trains: {}",
        s.false_negative_recoveries, s.rejected, s.replacement_trains
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureInputs;
    use crate::filter::PpfConfig;

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
    fn margin_buckets_cover_the_line() {
        assert_eq!(margin_bucket(i32::MIN / 2), 0);
        assert_eq!(margin_bucket(i32::MAX / 2), MARGIN_BUCKETS - 1);
        assert_eq!(margin_bucket(0), MARGIN_BUCKETS / 2);
        // Adjacent margins across a bucket edge land in adjacent buckets.
        assert_eq!(margin_bucket(-1), MARGIN_BUCKETS / 2 - 1);
        assert_eq!(margin_bucket(MARGIN_WIDTH), MARGIN_BUCKETS / 2 + 1);
        // Extremes get open-ended labels, the middle gets a range.
        assert!(margin_bucket_label(0).starts_with("<="));
        assert!(margin_bucket_label(MARGIN_BUCKETS - 1).starts_with(">="));
        assert!(margin_bucket_label(MARGIN_BUCKETS / 2).contains(".."));
    }

    #[test]
    fn saturation_rows_match_tables_and_count_rails() {
        // Keep accepting (low τ) and keep training (low θ_n) so repeated
        // unused evictions drive the selected weights all the way to the
        // negative rail instead of stopping at the reject threshold.
        let cfg = PpfConfig { tau_hi: -500, tau_lo: -500, theta_n: -1000, ..PpfConfig::default() };
        let mut f = PpfFilter::new(cfg);
        let i = inputs(0x2000, 10);
        // Drive the shared indices to the negative rail.
        for _ in 0..40 {
            let (d, sum) = f.infer(&i);
            f.record(0x2000, i, sum, d);
            f.train_on_eviction(0x2000, false);
        }
        let rows = weight_saturation(&f);
        assert_eq!(rows.len(), f.features().len());
        for (row, &kind) in rows.iter().zip(f.features()) {
            assert_eq!(row.feature, kind);
            assert_eq!(row.entries, kind.table_entries());
            assert!(row.at_min <= row.entries && row.at_max <= row.entries);
        }
        let pinned: usize = rows.iter().map(|r| r.at_min).sum();
        assert!(pinned > 0, "negative training should pin some weights at the rail");
        let nonzero: usize = rows.iter().map(|r| r.nonzero).sum();
        assert!(nonzero >= pinned);
    }

    #[test]
    fn per_source_block_only_renders_for_fused_streams() {
        let mut f = PpfFilter::default();
        let i0 = inputs(0x3000, 50);
        let (d, sum) = f.infer(&i0);
        f.record(0x3000, i0, sum, d);
        assert!(
            !render_report(&f).contains("per-source decisions"),
            "bare-source reports must stay byte-stable"
        );
        let i1 = FeatureInputs { source: 1, ..inputs(0x4000, 50) };
        let (d, sum) = f.infer(&i1);
        f.record(0x4000, i1, sum, d);
        let report = render_report(&f);
        assert!(report.contains("per-source decisions"), "{report}");
        assert!(report.contains("source"), "{report}");
    }

    #[test]
    fn report_renders_without_telemetry() {
        let f = PpfFilter::default();
        let report = render_report(&f);
        assert!(report.contains("weight saturation"), "{report}");
        assert!(report.contains("no decisions recorded"), "{report}");
        assert!(report.contains("reject-table recoveries"), "{report}");
    }

    #[cfg(feature = "observe")]
    #[test]
    fn recording_attributes_every_decision() {
        let mut f = PpfFilter::default();
        f.set_telemetry_enabled(true);
        for n in 0..50u64 {
            let a = 0x8000 + n * 64;
            let i = inputs(a, 30);
            let (d, sum) = f.infer(&i);
            f.record(a, i, sum, d);
            f.train_on_eviction(a, false);
        }
        let t = f.telemetry();
        assert_eq!(t.accepts() + t.rejects(), f.stats.inferences);
        assert_eq!(t.hi_margin().iter().sum::<u64>(), f.stats.inferences);
        assert_eq!(t.lo_margin().iter().sum::<u64>(), f.stats.inferences);
        // The eviction loop drives sums negative, so the reject side must
        // have accumulated negative contributions.
        assert!(t.rejects() > 0);
        assert!(t.reject_contrib().iter().sum::<i64>() < 0);
        let report = render_report(&f);
        assert!(report.contains("decision attribution"), "{report}");
        assert!(report.contains("margin sum-tau_hi:"), "{report}");
    }

    #[cfg(feature = "observe")]
    #[test]
    fn disabled_telemetry_records_nothing() {
        let mut f = PpfFilter::default();
        f.set_telemetry_enabled(false);
        let i = inputs(0x1000, 80);
        f.infer(&i);
        assert_eq!(f.telemetry().accepts() + f.telemetry().rejects(), 0);
    }

    #[cfg(not(feature = "observe"))]
    #[test]
    fn enable_is_forced_off_without_the_feature() {
        let mut f = PpfFilter::default();
        f.set_telemetry_enabled(true);
        assert!(!f.telemetry().enabled());
        let i = inputs(0x1000, 80);
        f.infer(&i);
        assert_eq!(f.telemetry().accepts() + f.telemetry().rejects(), 0);
    }
}
