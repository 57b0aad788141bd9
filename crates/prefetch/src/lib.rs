//! Hardware prefetchers for the PPF reproduction.
//!
//! Implements the paper's underlying prefetcher and all three comparison
//! points, each against the [`ppf_sim::Prefetcher`] interface:
//!
//! * [`Spp`] — Signature Path Prefetcher (the paper's case-study base),
//!   which also exposes the unthrottled [`LookaheadSource`] candidate stream
//!   that PPF filters,
//! * [`Vldp`] — Variable Length Delta Prefetcher (a second lookahead
//!   engine, also filterable by PPF),
//! * [`Bop`] — Best-Offset Prefetcher (DPC-2 winner),
//! * [`DaAmpm`] — DRAM-aware Access Map Pattern Matching,
//! * [`NextLine`], [`StridePrefetcher`] — reference baselines,
//! * [`Hybrid`] — ensemble combinator fusing any set of [`LookaheadSource`]s
//!   (SPP+BOP, SPP+DA-AMPM, stride+VLDP, …) into one provenance-tagged
//!   candidate stream with per-member credit attribution.
//!
//! # Example
//!
//! ```
//! use ppf_prefetchers::{Spp, SppConfig};
//! use ppf_sim::{run_single_core, SystemConfig};
//! use ppf_trace::SequentialStream;
//!
//! let trace = Box::new(SequentialStream::new(0x10_0000, 1 << 12, 0x400000, 4));
//! let report = run_single_core(
//!     SystemConfig::single_core(),
//!     "stream",
//!     trace,
//!     Box::new(Spp::new(SppConfig::default())),
//!     1_000,
//!     10_000,
//! );
//! assert!(report.cores[0].prefetch.issued > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ampm;
pub mod baselines;
pub mod bop;
pub mod hybrid;
pub mod lookahead;
pub mod spp;
pub mod vldp;

pub use ampm::{AmpmConfig, DaAmpm};
pub use baselines::{NextLine, StridePrefetcher};
pub use bop::{Bop, BopConfig};
pub use hybrid::Hybrid;
pub use lookahead::{Candidate, CandidateMeta, Feedback, LookaheadSource, SourceId, MAX_SOURCES};
pub use spp::{update_signature, Spp, SppConfig, SppStats};
pub use vldp::{Vldp, VldpConfig};
