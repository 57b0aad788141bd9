//! A ChampSim-like, trace-driven, cycle-approximate simulator.
//!
//! This crate is the substrate the PPF (ISCA '19) reproduction runs on. It
//! models the parts of the machine the paper's results depend on:
//!
//! * an out-of-order **core model** (ROB, fetch/retire widths, dependent
//!   loads serialize) driven by [`ppf_trace`] records,
//! * a three-level **cache hierarchy** (private L1D and L2, shared LLC) with
//!   LRU replacement, MSHRs, and per-line prefetch metadata,
//! * a banked **DRAM** channel with row buffers and a bandwidth-limited data
//!   bus,
//! * the **prefetch path**: prefetchers trigger on L2 demand accesses, fill
//!   into L2 or LLC, and receive useful/eviction feedback (paper Fig. 4).
//!
//! # Quick start
//!
//! ```
//! use ppf_sim::{run_single_core, NoPrefetcher, SystemConfig};
//! use ppf_trace::SequentialStream;
//!
//! let trace = Box::new(SequentialStream::new(0x10_0000, 1 << 12, 0x400000, 4));
//! let report = run_single_core(
//!     SystemConfig::single_core(),
//!     "stream",
//!     trace,
//!     Box::new(NoPrefetcher),
//!     1_000,  // warmup instructions
//!     10_000, // measured instructions
//! );
//! assert!(report.ipc() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addr;
pub mod cache;
pub mod ckpt;
pub mod config;
pub mod dram;
pub mod fault;
pub mod fxhash;
pub mod horizon;
pub mod invariants;
pub mod json;
pub mod mshr;
pub mod observe;
pub mod prefetcher;
pub mod prof;
pub mod rob;
pub mod simd;
pub mod stats;
pub mod system;
pub mod telemetry;

pub use cache::{Cache, CacheStats, FillKind};
pub use config::{CacheConfig, CoreConfig, DramConfig, PrefetchConfig, ReplacementPolicy, SystemConfig};
pub use dram::{Dram, DramStats};
pub use horizon::CycleStats;
pub use prefetcher::{
    AccessContext, EvictionInfo, FillLevel, NoPrefetcher, Prefetcher, PrefetchRequest,
};
pub use prof::{ProfConfig, Profiler, SharedSpanTable, Span, SpanStat, SPAN_COUNT};
pub use simd::SimdLevel;
pub use stats::{CoreReport, PrefetchStats, SimReport, IPC_SAMPLE_WINDOW};
pub use system::{run_single_core, Simulation};
pub use observe::Ring;
pub use telemetry::{
    render_events, EventKind, FilterCounters, IntervalSnapshot, TelemetryConfig, TraceEvent,
};
