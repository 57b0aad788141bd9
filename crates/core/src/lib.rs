//! Perceptron-Based Prefetch Filtering (PPF) — Bhatia et al., ISCA 2019.
//!
//! PPF is an online hashed-perceptron filter between a lookahead prefetcher
//! and the prefetch insertion queue. The underlying prefetcher is re-tuned
//! to speculate as deeply as possible; PPF inspects each candidate through
//! nine cheap features (addresses, PC hashes, signature/delta/depth/
//! confidence metadata), sums 5-bit weights, and either rejects it or routes
//! it to the L2 or LLC. Feedback from demand hits and evictions trains the
//! weights online; a Reject Table recovers false negatives.
//!
//! # Quick start
//!
//! ```
//! use ppf::Ppf;
//! use ppf_prefetchers::Spp;
//! use ppf_sim::{run_single_core, SystemConfig};
//! use ppf_trace::SequentialStream;
//!
//! let trace = Box::new(SequentialStream::new(0x10_0000, 1 << 12, 0x400000, 4));
//! let prefetcher = Ppf::new(Spp::default());
//! let report = run_single_core(
//!     SystemConfig::single_core(),
//!     "stream",
//!     trace,
//!     Box::new(prefetcher),
//!     1_000,
//!     10_000,
//! );
//! assert!(report.ipc() > 0.0);
//! ```
//!
//! # Crate layout
//!
//! * [`perceptron`] — the hashed-perceptron weight bank (5-bit weights),
//! * [`features`] — the nine retained features plus the paper's rejected
//!   candidates (for the Sec 5.5 selection methodology),
//! * [`tables`] — the Prefetch and Reject metadata tables (Tables 2–3),
//! * [`filter`] — inference, recording, and training ([`PpfFilter`]),
//! * [`introspect`] — weight-saturation reports, decision-time contribution
//!   attribution, and threshold-margin histograms (telemetry),
//! * [`wrapper`] — [`Ppf`], the [`ppf_sim::Prefetcher`] adapter over any
//!   [`ppf_prefetchers::LookaheadSource`],
//! * [`budget`] — the hardware storage budget (39.34 KB, Table 3),
//! * [`rosenblatt`] — the related-work comparison filter (Wang & Luo,
//!   Sec 7.4): a single error-correction perceptron over an unmodified
//!   baseline, reproduced to contrast with PPF's design.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod budget;
pub mod features;
pub mod filter;
pub mod introspect;
pub mod perceptron;
pub mod rosenblatt;
pub mod tables;
pub mod wrapper;

pub use budget::{adder_tree_depth, default_budget, StorageBudget};
pub use features::{FeatureInputs, FeatureKind, IndexList, MAX_FEATURES};
pub use filter::{Decision, FilterStats, PpfConfig, PpfFilter, TrainingEvent};
pub use introspect::{
    render_report, weight_saturation, DecisionTelemetry, SaturationRow, MARGIN_BUCKETS,
};
pub use perceptron::{Perceptron, WeightList, WEIGHT_MAX, WEIGHT_MIN};
pub use rosenblatt::{RosenblattConfig, RosenblattFilter, RosenblattStats};
pub use tables::{MetaTable, TableEntry};
pub use wrapper::{Ppf, PpfStats};
