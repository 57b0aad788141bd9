//! Analysis toolkit for the PPF reproduction.
//!
//! Implements the statistical machinery of the paper's evaluation:
//!
//! * [`stats`] — geometric means and the Sec 5.3 weighted-IPC speedup,
//! * [`pearson`] — the Sec 5.5 feature-selection methodology: per-feature
//!   Pearson correlation against prefetch outcomes, plus the cross-
//!   correlation pruning of redundant features,
//! * [`histogram`] — trained-weight distributions (Figure 6),
//! * [`observe`] — the one validating parser for every observability
//!   export (`interval`, `span`, `flight`, `serve` and `drill` records),
//! * [`interval`] — per-interval differencing and phase tables,
//! * [`profile`] — flat and top-down cost-center tables (span taxonomy
//!   from [`ppf_sim::prof`]),
//! * [`serve`] — the fleet-health report over daemon snapshots and
//!   chaos-drill reports,
//! * [`render`] — aligned tables, bar charts and sorted-series plots used by
//!   the experiment binaries to print paper-style figures in a terminal.
//!
//! ```
//! use ppf_analysis::stats::geometric_mean;
//! assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod histogram;
pub mod interval;
pub mod observe;
pub mod pearson;
pub mod profile;
pub mod render;
pub mod serve;
pub mod stats;

pub use histogram::WeightHistogram;
pub use interval::{interval_deltas, render_intervals, IntervalDelta};
pub use observe::{parse_document, parse_line, Kind, Record};
pub use pearson::{
    cross_correlation_matrix, feature_correlations, pearson as pearson_r, redundant_pairs,
    FeatureCorrelation,
};
pub use profile::{render_flat, render_topdown, SpanRecord};
pub use render::{bar_chart, sorted_series, TextTable};
pub use stats::{geomean_bootstrap_ci, geometric_mean, mean, percent_gain, weighted_speedup, ConfidenceInterval};
