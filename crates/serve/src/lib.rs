//! Filter-fleet daemon: fault-isolated multi-tenant PPF serving.
//!
//! This crate turns the PPF filter into a long-running, multi-tenant
//! service with an explicit failure model (DESIGN.md §10):
//!
//! - **Sharding** ([`daemon`]): tenants hash across worker threads; each
//!   shard owns its tenants outright, so the hot path takes no cross-shard
//!   locks and a fault's blast radius is bounded by construction.
//! - **Overload shedding** ([`shard`]): bounded queues shed oldest-first
//!   with per-tenant fair quotas; shed work is answered immediately with a
//!   degraded accept-all reply — fail open, never stall the caller.
//! - **Fault isolation**: a panic while scoring quarantines only that
//!   tenant, which is rebuilt from its last checkpoint barrier; a stalled
//!   shard heartbeat gets the whole shard replaced by the supervisor.
//! - **Crash-safe warm start** ([`checkpoint`]): CRC-sealed JSONL weight
//!   checkpoints with torn-tail tolerance, reusing the sweep-resume
//!   discipline from `ppf_bench::ckpt`; recovery is bit-exact thanks to
//!   the filter's epoch-barrier semantics (`PpfFilter::checkpoint_barrier`).
//! - **Wire protocol** ([`protocol`], [`server`]): length-prefixed binary
//!   frames over a unix socket; the in-process [`daemon::Daemon`] API is
//!   the same path minus the framing.
//! - **Self-profiling** ([`flight`]): every shard keeps an always-on
//!   flight recorder (bounded event ring) that the supervisor dumps to
//!   disk on retirement, plus span tables (`observe` feature +
//!   `PPF_OBSERVE=spans`) served live over the `OP_STATS` opcode
//!   (`ppf_loadgen --stats`).
//! - **Chaos drills**: `PPF_FAULT_INJECT` (parsed by `ppf_bench::fault`)
//!   injects tenant panics, checkpoint bit-flips, slow shards, and load
//!   spikes; `ppf_loadgen --drill` replays multi-tenant `ppf-trace`
//!   streams against the fleet and reports p50/p99 with shed, degraded,
//!   and restart rates.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checkpoint;
pub mod counters;
pub mod daemon;
pub mod flight;
pub mod loadgen;
pub mod protocol;
#[cfg(unix)]
pub mod server;
mod shard;
pub mod tenant;

pub use checkpoint::{Restored, RestoredTenant, ShardCheckpoint};
pub use counters::Counters;
pub use daemon::{Daemon, ServeConfig};
pub use flight::{FlightEvent, FlightKind, FlightRecorder};
pub use protocol::{Candidate, ScoreReply, ScoreRequest};
pub use tenant::TenantState;
