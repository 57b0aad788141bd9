//! Interval stats, filter counters and the event trace.
//!
//! Long sweeps produce end-of-run aggregates; debugging a prefetcher (or
//! validating it against the paper's phase plots) needs to see *when* things
//! happened. This module provides three facilities, all bounded and
//! allocation-free on the hot path:
//!
//! * **Interval snapshots** — every N retired instructions per core, the
//!   cumulative measurement-region stats (IPC, L2/LLC misses, prefetch and
//!   filter counters) are copied into a bounded [`Ring`]. The final
//!   snapshot is taken at the exact instant the end-of-run [`CoreReport`]
//!   snapshot is, so its counters equal the report's.
//! * **Filter counters** — a [`FilterCounters`] block every prefetcher can
//!   surface (PPF does; simple prefetchers return zeros), carrying the
//!   accept/reject/fill-level/training counts the paper's Figs. 9–13 derive
//!   from.
//! * **Event trace** — a bounded [`Ring`] of the last [`TraceEvent`]s
//!   (demand misses, prefetch issues, PPF verdicts, fills, eviction
//!   trainings). Each [`crate::Simulation`] owns its ring and writes from
//!   one thread, so recording needs no synchronisation. The invariant
//!   checker dumps the ring on a violation so the cycles leading up to a
//!   corruption are visible.
//!
//! All three are gated by the `observe` feature and the `intervals` token
//! of `PPF_OBSERVE` (see [`crate::observe`]), sampled once per
//! `Simulation` at construction. [`crate::Simulation::set_telemetry`]
//! overrides the runtime switch programmatically (used by tests, which
//! must not race on process-global environment).
//!
//! [`CoreReport`]: crate::CoreReport

use crate::cache::CacheStats;
use crate::observe::{self, Ring};
use crate::stats::PrefetchStats;

/// Snapshots retained per core before the ring wraps.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// Trace events retained per simulation before the ring wraps.
pub const EVENT_RING_CAPACITY: usize = 1024;

/// Runtime telemetry settings, resolved once per [`crate::Simulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Retired instructions between snapshots; `0` disables telemetry.
    pub interval: u64,
}

impl TelemetryConfig {
    /// Telemetry off (the default without `PPF_OBSERVE=intervals`).
    pub fn disabled() -> Self {
        Self { interval: 0 }
    }

    /// Resolves the configuration from the `intervals` token of
    /// `PPF_OBSERVE`. Always disabled when the `observe` feature is not
    /// compiled in.
    pub fn from_env() -> Self {
        Self { interval: observe::from_env().interval }
    }
}

/// Prefetch-filter counters a [`crate::Prefetcher`] can surface for
/// telemetry. Filterless prefetchers report all zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterCounters {
    /// Candidates evaluated by the filter.
    pub inferences: u64,
    /// Accepted with L2 fill level.
    pub accepted_l2: u64,
    /// Accepted with LLC fill level.
    pub accepted_llc: u64,
    /// Rejected candidates.
    pub rejected: u64,
    /// Upward training events.
    pub positive_trains: u64,
    /// Downward training events.
    pub negative_trains: u64,
    /// Rejected candidates later demanded (Reject Table recoveries).
    pub false_negative_recoveries: u64,
    /// Negative trainings triggered by metadata-table replacement.
    pub replacement_trains: u64,
    /// Metadata, not a counter: carried through [`FilterCounters::delta`]
    /// unchanged. PPF reports 8, the depth window it once scored by; the
    /// field stays because perfbench's fig09 digest hashes it (ROADMAP
    /// item 1).
    pub batch_window: u64,
}

impl FilterCounters {
    /// Field-wise `self - other` (saturating), for per-interval deltas.
    pub fn delta(&self, other: &Self) -> Self {
        Self {
            inferences: self.inferences.saturating_sub(other.inferences),
            accepted_l2: self.accepted_l2.saturating_sub(other.accepted_l2),
            accepted_llc: self.accepted_llc.saturating_sub(other.accepted_llc),
            rejected: self.rejected.saturating_sub(other.rejected),
            positive_trains: self.positive_trains.saturating_sub(other.positive_trains),
            negative_trains: self.negative_trains.saturating_sub(other.negative_trains),
            false_negative_recoveries: self
                .false_negative_recoveries
                .saturating_sub(other.false_negative_recoveries),
            replacement_trains: self.replacement_trains.saturating_sub(other.replacement_trains),
            batch_window: self.batch_window,
        }
    }
}

/// Cumulative measurement-region stats for one core at one interval
/// boundary. All counters count from the start of the measurement region, so
/// consecutive snapshots can be differenced for per-interval rates and the
/// final snapshot matches the end-of-run [`crate::CoreReport`] exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalSnapshot {
    /// Index of the core this snapshot describes.
    pub core: u32,
    /// Snapshot sequence number (0 = first interval boundary). Monotonic
    /// even after the ring wraps.
    pub seq: u64,
    /// Instructions retired in the measurement region so far.
    pub instructions: u64,
    /// Cycles elapsed in the measurement region so far.
    pub cycles: u64,
    /// This core's L2 counters.
    pub l2: CacheStats,
    /// Shared-LLC demand misses (whole system — the LLC does not attribute
    /// misses to cores).
    pub llc_demand_misses: u64,
    /// This core's prefetch-path counters.
    pub prefetch: PrefetchStats,
    /// This core's prefetch-filter counters (zeros for filterless schemes).
    pub filter: FilterCounters,
}

impl IntervalSnapshot {
    /// Cumulative IPC up to this snapshot.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.instructions as f64 / self.cycles as f64
    }

    /// Cumulative L2 demand misses per kilo-instruction.
    pub fn l2_mpki(&self) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        self.l2.demand_misses() as f64 * 1000.0 / self.instructions as f64
    }

    /// Cumulative LLC demand misses per kilo-instruction of this core.
    pub fn llc_mpki(&self) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        self.llc_demand_misses as f64 * 1000.0 / self.instructions as f64
    }

    /// One `interval` record (no trailing newline) in the exported JSONL
    /// envelope. Counters are exact integers; derived rates are 6-decimal
    /// floats.
    pub fn to_jsonl(&self) -> String {
        format!(
            "{},\"core\":{},\"seq\":{},\"instr\":{},\"cycles\":{},\
             \"ipc\":{:.6},\"l2_mpki\":{:.6},\"llc_mpki\":{:.6},\
             \"l2_acc\":{},\"l2_hit\":{},\"l2_demand_fills\":{},\
             \"l2_pf_fills\":{},\"l2_useful_pf\":{},\"l2_useless_pf\":{},\
             \"llc_miss\":{},\
             \"pf_emitted\":{},\"pf_issued\":{},\"pf_useful\":{},\
             \"pf_late\":{},\"pf_late_wait\":{},\"pf_dropped_redundant\":{},\
             \"pf_dropped_mshr\":{},\"pf_dropped_queue\":{},\
             \"ppf_inferences\":{},\"ppf_accept_l2\":{},\"ppf_accept_llc\":{},\
             \"ppf_reject\":{},\"ppf_pos_train\":{},\"ppf_neg_train\":{},\
             \"ppf_recoveries\":{},\"ppf_replacement_trains\":{},\
             \"ppf_batch_window\":{}}}",
            observe::envelope("interval"),
            self.core,
            self.seq,
            self.instructions,
            self.cycles,
            self.ipc(),
            self.l2_mpki(),
            self.llc_mpki(),
            self.l2.demand_accesses,
            self.l2.demand_hits,
            self.l2.demand_fills,
            self.l2.prefetch_fills,
            self.l2.useful_prefetches,
            self.l2.useless_prefetches,
            self.llc_demand_misses,
            self.prefetch.emitted,
            self.prefetch.issued,
            self.prefetch.useful,
            self.prefetch.late,
            self.prefetch.late_wait_cycles,
            self.prefetch.dropped_redundant,
            self.prefetch.dropped_mshr,
            self.prefetch.dropped_queue,
            self.filter.inferences,
            self.filter.accepted_l2,
            self.filter.accepted_llc,
            self.filter.rejected,
            self.filter.positive_trains,
            self.filter.negative_trains,
            self.filter.false_negative_recoveries,
            self.filter.replacement_trains,
            self.filter.batch_window,
        )
    }

    /// Column header matching [`IntervalSnapshot::to_csv_row`].
    pub const CSV_HEADER: &'static str = "core,seq,instr,cycles,ipc,l2_mpki,llc_mpki,\
        pf_issued,pf_useful,pf_late,ppf_accept_l2,ppf_accept_llc,ppf_reject";

    /// One CSV row of the headline columns (full detail lives in JSONL).
    pub fn to_csv_row(&self) -> String {
        format!(
            "{},{},{},{},{:.6},{:.6},{:.6},{},{},{},{},{},{}",
            self.core,
            self.seq,
            self.instructions,
            self.cycles,
            self.ipc(),
            self.l2_mpki(),
            self.llc_mpki(),
            self.prefetch.issued,
            self.prefetch.useful,
            self.prefetch.late,
            self.filter.accepted_l2,
            self.filter.accepted_llc,
            self.filter.rejected,
        )
    }
}

/// What a [`TraceEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A demand access missed the L2.
    DemandMiss,
    /// A prefetch left the queue for the memory system
    /// (payload: fill level, 0 = L2, 1 = LLC).
    PrefetchIssue,
    /// The prefetch filter judged a trigger's candidates
    /// (payload: accepted count in the high 32 bits, rejected in the low).
    PpfVerdict,
    /// A prefetch fill completed (payload: fill level, 0 = L2, 1 = LLC).
    Fill,
    /// A prefetched-but-unused line was evicted, training the filter
    /// negatively (payload: 1 if the LLC evicted it, 0 if an L2).
    EvictionTraining,
}

/// One entry in the event-trace ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycle the event occurred.
    pub cycle: u64,
    /// Core it is attributed to; `u32::MAX` when unattributable (the shared
    /// LLC does not track which core prefetched an evicted line).
    pub core: u32,
    /// Event kind.
    pub kind: EventKind,
    /// Block number involved.
    pub block: u64,
    /// Kind-specific payload (see [`EventKind`]).
    pub payload: u64,
}

impl TraceEvent {
    /// One-line human-readable rendering (used in diagnostic dumps).
    pub fn render(&self) -> String {
        let what = match self.kind {
            EventKind::DemandMiss => "demand-miss".to_string(),
            EventKind::PrefetchIssue => format!(
                "prefetch-issue fill={}",
                if self.payload == 0 { "l2" } else { "llc" }
            ),
            EventKind::PpfVerdict => format!(
                "ppf-verdict accepted={} rejected={}",
                self.payload >> 32,
                self.payload & 0xffff_ffff
            ),
            EventKind::Fill => {
                format!("fill level={}", if self.payload == 0 { "l2" } else { "llc" })
            }
            EventKind::EvictionTraining => format!(
                "eviction-training at={}",
                if self.payload == 0 { "l2" } else { "llc" }
            ),
        };
        let core = if self.core == u32::MAX {
            "-".to_string()
        } else {
            self.core.to_string()
        };
        format!("cycle {:>10} core {core} block {:#012x} {what}", self.cycle, self.block)
    }
}

/// Renders a trace ring oldest → newest, one event per line, for the
/// invariant checker's diagnostic dump.
pub fn render_events(events: &Ring<TraceEvent>) -> String {
    let mut out =
        format!("event trace: {} retained of {} recorded\n", events.len(), events.total());
    for ev in events.iter() {
        out.push_str("  ");
        out.push_str(&ev.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(core: u32, seq: u64) -> IntervalSnapshot {
        IntervalSnapshot {
            core,
            seq,
            instructions: (seq + 1) * 1000,
            cycles: (seq + 1) * 2000,
            l2: CacheStats { demand_accesses: 10 * (seq + 1), demand_hits: 5, ..Default::default() },
            llc_demand_misses: seq,
            prefetch: PrefetchStats { issued: seq, ..Default::default() },
            filter: FilterCounters { inferences: seq, ..Default::default() },
        }
    }

    #[test]
    fn interval_ring_wraps_at_capacity() {
        let mut r = Ring::new(4);
        for seq in 0..10 {
            r.push(snap(0, seq));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.total(), 10);
        assert_eq!(r.dropped(), 6);
        let seqs: Vec<u64> = r.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "oldest -> newest after wrap");
        assert_eq!(r.last().unwrap().seq, 9);
    }

    #[test]
    fn interval_ring_below_capacity_keeps_everything() {
        let mut r = Ring::new(8);
        for seq in 0..3 {
            r.push(snap(1, seq));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 0);
        let seqs: Vec<u64> = r.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(r.last().unwrap().seq, 2);
    }

    #[test]
    fn env_parse_matches_invariants_conventions() {
        // The `intervals` token: absent, `off` or `=0` disables; bare turns
        // on at the default period; `=N` sets it; a bad number falls back
        // to the default. Case and spaces do not matter.
        let interval = |raw: Option<&str>| observe::parse(raw).0.interval;
        for raw in [None, Some(""), Some("off"), Some(" OFF "), Some("spans"), Some("intervals=0")] {
            assert_eq!(interval(raw), 0, "{raw:?}");
        }
        for raw in ["intervals", " Intervals ", "INTERVALS=bogus"] {
            assert_eq!(interval(Some(raw)), observe::DEFAULT_INTERVAL, "{raw:?}");
        }
        assert_eq!(interval(Some("intervals = 25000")), 25_000);
    }

    #[test]
    fn event_ring_wraps_and_orders() {
        let mut r = Ring::new(3);
        for i in 0..5u64 {
            r.push(TraceEvent {
                cycle: i,
                core: 0,
                kind: EventKind::DemandMiss,
                block: i,
                payload: 0,
            });
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.total(), 5);
        let cycles: Vec<u64> = r.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4]);
        let dump = render_events(&r);
        assert!(dump.contains("3 retained of 5 recorded"), "{dump}");
        assert!(dump.contains("demand-miss"), "{dump}");
    }

    #[test]
    fn jsonl_carries_exact_counters_and_schema_version() {
        let s = snap(2, 7);
        let line = s.to_jsonl();
        assert!(line.starts_with(&observe::envelope("interval")), "{line}");
        assert!(line.contains("\"core\":2,"), "{line}");
        assert!(line.contains("\"seq\":7,"), "{line}");
        assert!(line.contains("\"instr\":8000,"), "{line}");
        assert!(line.contains("\"l2_acc\":80,"), "{line}");
        assert!(line.contains("\"ppf_inferences\":7,"), "{line}");
        assert!(line.contains("\"ppf_batch_window\":"), "{line}");
        assert!(line.ends_with('}'), "{line}");
        // Braces balance and there is exactly one object.
        assert_eq!(line.matches('{').count(), 1);
        assert_eq!(line.matches('}').count(), 1);
    }

    #[test]
    fn csv_row_matches_header_arity() {
        let s = snap(0, 3);
        let cols = IntervalSnapshot::CSV_HEADER.split(',').count();
        assert_eq!(s.to_csv_row().split(',').count(), cols);
    }

    #[test]
    fn verdict_payload_packs_accept_reject() {
        let ev = TraceEvent {
            cycle: 1,
            core: 0,
            kind: EventKind::PpfVerdict,
            block: 0x40,
            payload: (3u64 << 32) | 2,
        };
        let line = ev.render();
        assert!(line.contains("accepted=3 rejected=2"), "{line}");
    }

    #[test]
    fn filter_counter_deltas() {
        let a = FilterCounters { inferences: 10, rejected: 4, ..Default::default() };
        let b = FilterCounters { inferences: 3, rejected: 1, ..Default::default() };
        let d = a.delta(&b);
        assert_eq!(d.inferences, 7);
        assert_eq!(d.rejected, 3);
        assert_eq!(d.accepted_l2, 0);
    }
}
