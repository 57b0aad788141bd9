//! Synthetic memory-trace substrate for the PPF reproduction.
//!
//! The ISCA '19 PPF paper evaluates on SimPoint traces of SPEC CPU 2017,
//! SPEC CPU 2006 and CloudSuite. Those traces are proprietary, so this crate
//! provides the closest synthetic equivalent: a library of composable
//! *access-pattern primitives* (streams, strides, stencils, pointer chases,
//! spatial footprints, phase alternation) and, on top of them, named
//! *workload models* whose parameters reflect each application's published
//! memory behaviour (footprint, miss intensity, stride regularity, page-local
//! delta entropy).
//!
//! Every generator is fully deterministic given a seed, so experiments are
//! reproducible bit-for-bit.
//!
//! # Quick start
//!
//! ```
//! use ppf_trace::{Workload, TraceBuilder};
//!
//! let workload = Workload::spec2017()
//!     .iter()
//!     .find(|w| w.name() == "603.bwaves_s")
//!     .unwrap()
//!     .clone();
//! let mut gen = TraceBuilder::new(workload).seed(42).build();
//! let rec = gen.next_record();
//! assert!(rec.work <= 64);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod io;
pub mod mix;
pub mod mutate;
pub mod pattern;
pub mod prng;
pub mod profile;
pub mod record;
pub mod replay;
pub mod validation;
pub mod workload;

pub use io::{load_trace_csv, record_trace, record_trace_csv, TraceError, TraceFile};
pub use mix::{MixGenerator, WorkloadMix};
pub use pattern::{
    AccessPattern, GupsRandom, HotRegionRandom, Interleave, PhaseAlternate, PointerChase,
    RegionScan, SequentialStream, Stencil3d, StridedStream,
};
pub use prng::SplitMix64;
pub use profile::TraceProfile;
pub use record::{AccessKind, TraceRecord};
pub use replay::{MultiTenantReplay, RatePlan};
pub use validation::{cloudsuite, spec2006};
pub use workload::{Suite, TraceBuilder, TraceGenerator, Workload};
