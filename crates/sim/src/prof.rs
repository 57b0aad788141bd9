//! Span-based self-profiling: *where* the wall time goes.
//!
//! Interval telemetry ([`crate::telemetry`]) counts what happened; this
//! module attributes wall time, call counts, and simulated cycles to named
//! [`Span`]s covering the simulator's tick anatomy and the serving stack's
//! per-request anatomy. Two collectors share the span taxonomy:
//!
//! * [`Profiler`] — single-threaded, owned by a [`crate::Simulation`].
//!   Because a tick costs a few hundred nanoseconds while a clock stamp
//!   costs tens, fine-grained spans are **sampled**: one tick in every
//!   `stride` gets stamped, and renderers scale the sampled totals back up.
//!   The [`Span::RunLoop`] root is stamped once per run (stride 1), so span
//!   coverage of total wall time holds by construction. The per-lap stamp
//!   cost is calibrated at construction and subtracted from every recorded
//!   lap, keeping sampled estimates close to the uninstrumented truth.
//! * [`SharedSpanTable`] — relaxed atomics, for the serving stack where
//!   several threads record microsecond-scale operations (decode, queue
//!   wait, score, checkpoint append) and sampling is unnecessary.
//!
//! # Gating
//!
//! Gated by the `observe` feature and the `spans` token of `PPF_OBSERVE`
//! (see [`crate::observe`]), sampled once per `Simulation` at
//! construction; [`crate::Simulation::set_profiling`] overrides it
//! programmatically.
//!
//! # Export
//!
//! [`Profiler::to_jsonl`] and [`SharedSpanTable::to_jsonl`] emit one `span`
//! record per active span in the shared envelope. Span identity is numeric;
//! names resolve via [`Span::name`] on the analysis side.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::observe::{self, DEFAULT_STRIDE};

/// Every named cost center. Each span has a static parent ([`Span::parent`])
/// so renderers can roll the flat table up into a top-down tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Span {
    /// The whole [`crate::Simulation::run`] loop (stride 1: stamped once).
    RunLoop = 0,
    /// One executed tick (sampled; children below share its stamps).
    Tick = 1,
    /// Shared-LLC MSHR drain + fill delivery.
    LlcMshrDrain = 2,
    /// Deferred credit and LLC-eviction queue delivery.
    DeferredDrain = 3,
    /// Per-core L2 MSHR drain + fill cascade.
    CoreFillDrain = 4,
    /// Prefetcher feedback callbacks (eviction / fill training) during a
    /// core drain.
    PfFeedback = 5,
    /// Retire + dispatch, including the demand path below.
    RetireDispatch = 6,
    /// Demand lookup: L1/L2 probes, victim scans, MSHR allocate/merge.
    DemandLookup = 7,
    /// Prefetcher candidate generation + PPF inference
    /// (`on_demand_access`).
    CandidateGen = 8,
    /// Dedup-at-enqueue scan of generated candidates.
    PfEnqueue = 9,
    /// Prefetch issue from the per-core queue.
    IssuePrefetch = 10,
    /// Periodic invariant checking.
    InvariantCheck = 11,
    /// Event-horizon computation: each ticked core's wake cycle, and the
    /// tick's horizon at its end.
    HorizonCompute = 12,
    /// Serve: wire-frame decode on the connection thread.
    Decode = 13,
    /// Serve: job wait in the shard queue (submit → dequeue).
    QueueWait = 14,
    /// Serve: tenant scoring (batched PPF inference + training).
    Score = 15,
    /// Serve: checkpoint record append.
    CheckpointAppend = 16,
}

/// Number of distinct spans.
pub const SPAN_COUNT: usize = 17;

impl Span {
    /// Every span, in id order.
    pub const ALL: [Span; SPAN_COUNT] = [
        Span::RunLoop,
        Span::Tick,
        Span::LlcMshrDrain,
        Span::DeferredDrain,
        Span::CoreFillDrain,
        Span::PfFeedback,
        Span::RetireDispatch,
        Span::DemandLookup,
        Span::CandidateGen,
        Span::PfEnqueue,
        Span::IssuePrefetch,
        Span::InvariantCheck,
        Span::HorizonCompute,
        Span::Decode,
        Span::QueueWait,
        Span::Score,
        Span::CheckpointAppend,
    ];

    /// Stable numeric id used in the JSONL export.
    #[inline]
    pub fn id(self) -> u64 {
        self as u64
    }

    /// The span with numeric id `id`, if any.
    pub fn from_id(id: u64) -> Option<Span> {
        Span::ALL.get(id as usize).copied()
    }

    /// Human-readable name (resolved analysis-side from the numeric id).
    pub fn name(self) -> &'static str {
        match self {
            Span::RunLoop => "run_loop",
            Span::Tick => "tick",
            Span::LlcMshrDrain => "llc_mshr_drain",
            Span::DeferredDrain => "deferred_drain",
            Span::CoreFillDrain => "core_fill_drain",
            Span::PfFeedback => "pf_feedback",
            Span::RetireDispatch => "retire_dispatch",
            Span::DemandLookup => "demand_lookup",
            Span::CandidateGen => "candidate_gen",
            Span::PfEnqueue => "pf_enqueue",
            Span::IssuePrefetch => "issue_prefetch",
            Span::InvariantCheck => "invariant_check",
            Span::HorizonCompute => "horizon_compute",
            Span::Decode => "decode",
            Span::QueueWait => "queue_wait",
            Span::Score => "score",
            Span::CheckpointAppend => "checkpoint_append",
        }
    }

    /// Static parent for top-down rollup; `None` for roots. A span's wall
    /// time *includes* its children's (shared-stamp laps), so renderers
    /// compute self time as parent minus children.
    pub fn parent(self) -> Option<Span> {
        match self {
            Span::RunLoop => None,
            Span::Tick => Some(Span::RunLoop),
            Span::LlcMshrDrain
            | Span::DeferredDrain
            | Span::CoreFillDrain
            | Span::RetireDispatch
            | Span::IssuePrefetch
            | Span::InvariantCheck
            | Span::HorizonCompute => Some(Span::Tick),
            Span::PfFeedback => Some(Span::CoreFillDrain),
            Span::DemandLookup | Span::CandidateGen | Span::PfEnqueue => {
                Some(Span::RetireDispatch)
            }
            Span::Decode | Span::QueueWait | Span::Score | Span::CheckpointAppend => None,
        }
    }
}

/// Accumulated totals for one span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Times the span was recorded (laps or whole-span records).
    pub calls: u64,
    /// Wall time accumulated, nanoseconds (sampled spans hold the *sampled*
    /// total; multiply by the stride for an estimate of the true total).
    pub wall_ns: u64,
    /// Simulated cycles attributed (only the run-loop and tick spans carry
    /// cycle attribution).
    pub cycles: u64,
}

/// A clock stamp handed out by [`Profiler::stamp`]: the instant plus the
/// profiler's stamp sequence number at that point. The sequence lets a lap
/// subtract the calibrated cost of every stamp taken *inside* its window
/// (nested spans share the instrumented stretch), so recorded durations
/// track the uninstrumented truth instead of compounding clock-read costs.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    at: Instant,
    seq: u64,
}

/// Runtime profiling settings, resolved once per [`crate::Simulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfConfig {
    /// Executed ticks between fine-grained samples; `0` disables profiling.
    pub stride: u64,
}

impl ProfConfig {
    /// Profiling off (the default without `PPF_OBSERVE=spans`).
    pub fn disabled() -> Self {
        Self { stride: 0 }
    }

    /// Profiling on at the default sampling stride.
    pub fn enabled() -> Self {
        Self { stride: DEFAULT_STRIDE }
    }

    /// Resolves the configuration from the `spans` token of `PPF_OBSERVE`.
    /// Always disabled when the `observe` feature is not compiled in.
    pub fn from_env() -> Self {
        Self { stride: observe::from_env().stride }
    }
}

/// Single-threaded span collector for the simulator (see module docs for
/// the sampling and calibration model).
#[derive(Debug, Clone)]
pub struct Profiler {
    stride: u64,
    /// Calibrated cost of one lap (one `Instant::now` + bookkeeping),
    /// subtracted from every recorded duration.
    lap_cost_ns: u64,
    /// Executed ticks since the last sample.
    countdown: u64,
    /// True while the current tick is being sampled (hot-path hooks check
    /// this one bool and fold away entirely without the feature).
    sampling: bool,
    /// Clock stamps taken so far; [`Stamp`]s carry it so laps can subtract
    /// the cost of stamps nested inside their window.
    stamp_seq: u64,
    stats: [SpanStat; SPAN_COUNT],
}

impl Profiler {
    /// Creates a collector for `cfg`, calibrating the per-lap stamp cost
    /// when enabled.
    pub fn new(cfg: ProfConfig) -> Self {
        let lap_cost_ns = if cfg.stride != 0 { calibrate_lap_cost() } else { 0 };
        Self {
            stride: cfg.stride,
            lap_cost_ns,
            countdown: 1, // sample the first executed tick
            sampling: false,
            stamp_seq: 0,
            stats: [SpanStat::default(); SPAN_COUNT],
        }
    }

    /// True when profiling is runtime-enabled (callers must additionally
    /// gate on the `observe` feature via `cfg!` for zero default cost).
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        self.stride != 0
    }

    /// The sampling stride (0 = disabled).
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// The calibrated per-lap stamp cost, nanoseconds.
    pub fn lap_cost_ns(&self) -> u64 {
        self.lap_cost_ns
    }

    /// Advances the tick counter; returns true if this tick is sampled.
    /// Pair with [`Profiler::end_tick`].
    #[inline(always)]
    pub fn begin_tick(&mut self) -> bool {
        if self.stride == 0 {
            return false;
        }
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = self.stride;
            self.sampling = true;
        }
        self.sampling
    }

    /// Ends a sampled tick.
    #[inline(always)]
    pub fn end_tick(&mut self) {
        self.sampling = false;
    }

    /// A stamp to lap against, or `None` when this tick is not sampled.
    /// With the `observe` feature off this folds to a constant `None`
    /// and every downstream lap is eliminated.
    #[inline(always)]
    pub fn stamp(&mut self) -> Option<Stamp> {
        if cfg!(feature = "observe") && self.sampling {
            self.stamp_seq += 1;
            Some(Stamp { at: Instant::now(), seq: self.stamp_seq })
        } else {
            None
        }
    }

    /// Attributes the time since `*s` to `span` and advances the stamp, so
    /// consecutive laps partition a stretch of code without double
    /// stamping. The calibrated cost of every stamp taken inside the window
    /// (nested spans plus this lap's own clock read) is subtracted. No-op
    /// when `s` is `None` (unsampled tick / disabled).
    #[inline(always)]
    pub fn lap(&mut self, span: Span, s: &mut Option<Stamp>) {
        if let Some(prev) = s {
            let now = Instant::now();
            self.stamp_seq += 1;
            let ns = now.duration_since(prev.at).as_nanos() as u64;
            let inner = self.stamp_seq - prev.seq;
            let stat = &mut self.stats[span as usize];
            stat.calls += 1;
            stat.wall_ns += ns.saturating_sub(inner * self.lap_cost_ns);
            *prev = Stamp { at: now, seq: self.stamp_seq };
        }
    }

    /// Records the whole stretch since `s` against `span` without advancing
    /// it (the tick total, whose children lapped inside the same window).
    /// Subtracts the cost of every nested stamp, like [`Profiler::lap`].
    #[inline(always)]
    pub fn lap_total(&mut self, span: Span, s: Option<Stamp>) {
        if let Some(prev) = s {
            self.stamp_seq += 1;
            let ns = prev.at.elapsed().as_nanos() as u64;
            let inner = self.stamp_seq - prev.seq;
            let stat = &mut self.stats[span as usize];
            stat.calls += 1;
            stat.wall_ns += ns.saturating_sub(inner * self.lap_cost_ns);
        }
    }

    /// Records a whole measured duration against `span` (used for the
    /// run-loop root, which keeps its own uncorrected stamp).
    pub fn record_ns(&mut self, span: Span, ns: u64) {
        let stat = &mut self.stats[span as usize];
        stat.calls += 1;
        stat.wall_ns += ns;
    }

    /// Attributes simulated cycles to `span`.
    #[inline(always)]
    pub fn add_cycles(&mut self, span: Span, n: u64) {
        self.stats[span as usize].cycles += n;
    }

    /// The accumulated stats of `span`.
    pub fn stat(&self, span: Span) -> SpanStat {
        self.stats[span as usize]
    }

    /// All accumulated stats, indexed by [`Span::id`].
    pub fn stats(&self) -> &[SpanStat; SPAN_COUNT] {
        &self.stats
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.stats.iter().all(|s| s.calls == 0)
    }

    /// One `span` record per active span (newline-terminated;
    /// empty string when nothing was recorded). `stride` is 1 for the
    /// unsampled run-loop root and the configured stride otherwise, so
    /// consumers can scale sampled totals without out-of-band knowledge.
    pub fn to_jsonl(&self) -> String {
        table_jsonl(&self.stats, self.stride.max(1), None)
    }
}

/// One `span` record per active span of `stats`, newline-terminated. Every
/// span but the unsampled run-loop root carries `stride`.
fn table_jsonl(stats: &[SpanStat; SPAN_COUNT], stride: u64, shard: Option<u64>) -> String {
    let mut out = String::new();
    for span in Span::ALL.into_iter().filter(|&s| stats[s as usize].calls != 0) {
        let stride = if span == Span::RunLoop { 1 } else { stride };
        out.push_str(&span_jsonl(span, stats[span as usize], stride, shard));
        out.push('\n');
    }
    out
}

/// Formats one `span` record in the shared envelope (no newline).
/// `parent` is omitted for roots; `shard` tags serve-side per-shard tables.
pub fn span_jsonl(span: Span, stat: SpanStat, stride: u64, shard: Option<u64>) -> String {
    let mut line = format!(
        "{},\"span\":{},\"calls\":{},\"wall_ns\":{},\"cycles\":{},\"stride\":{stride}",
        observe::envelope("span"),
        span.id(),
        stat.calls,
        stat.wall_ns,
        stat.cycles,
    );
    if let Some(p) = span.parent() {
        line.push_str(&format!(",\"parent\":{}", p.id()));
    }
    if let Some(s) = shard {
        line.push_str(&format!(",\"shard\":{s}"));
    }
    line.push('}');
    line
}

/// Measures the marginal cost of one lap so [`Profiler::lap`] can subtract
/// it from every recorded duration. Differential: times a work loop with
/// and without an interleaved *emulated lap* (clock read, `duration_since`
/// through `as_nanos`' 128-bit math, stat-table writes, stamp update), so
/// the estimate covers the whole instrumentation body, not just
/// `Instant::now` latency in a tight loop.
fn calibrate_lap_cost() -> u64 {
    const ROUNDS: u64 = 4096;
    #[inline(never)]
    fn work(mut acc: u64, lap: bool) -> (u64, Duration) {
        let mut stats = [SpanStat::default(); SPAN_COUNT];
        let mut prev = Stamp { at: Instant::now(), seq: 0 };
        let mut seq = 0u64;
        let t0 = Instant::now();
        for i in 0..ROUNDS {
            acc = std::hint::black_box(
                acc.wrapping_add(i).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17),
            );
            if lap {
                let now = Instant::now();
                seq += 1;
                let ns = now.duration_since(prev.at).as_nanos() as u64;
                let stat = &mut stats[(i % SPAN_COUNT as u64) as usize];
                stat.calls += 1;
                stat.wall_ns += ns.saturating_sub(seq - prev.seq);
                prev = Stamp { at: now, seq };
            }
        }
        std::hint::black_box((&stats, prev));
        (acc, t0.elapsed())
    }
    // Warm the clock path, then best-of-three each way to shed one-off
    // scheduler noise from either side of the subtraction.
    let (mut acc, _) = work(1, true);
    let mut bare = Duration::MAX;
    let mut stamped = Duration::MAX;
    for _ in 0..3 {
        let (a, d) = work(acc, false);
        acc = a;
        bare = bare.min(d);
        let (a, d) = work(acc, true);
        acc = a;
        stamped = stamped.min(d);
    }
    (stamped.saturating_sub(bare).as_nanos() as u64) / ROUNDS
}

/// Thread-safe span totals for the serving stack: every record is one
/// relaxed `fetch_add` pair, negligible against microsecond-scale serve
/// operations, so no sampling is needed. Cycle attribution stays zero
/// (serving has no simulated clock).
#[derive(Debug, Default)]
pub struct SharedSpanTable {
    calls: [AtomicU64; SPAN_COUNT],
    wall_ns: [AtomicU64; SPAN_COUNT],
}

impl SharedSpanTable {
    /// Fresh, all-zero table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attributes `ns` nanoseconds to `span`.
    #[inline]
    pub fn record_ns(&self, span: Span, ns: u64) {
        self.calls[span as usize].fetch_add(1, Ordering::Relaxed);
        self.wall_ns[span as usize].fetch_add(ns, Ordering::Relaxed);
    }

    /// A consistent-enough snapshot of every span's totals.
    pub fn snapshot(&self) -> [SpanStat; SPAN_COUNT] {
        std::array::from_fn(|i| SpanStat {
            calls: self.calls[i].load(Ordering::Relaxed),
            wall_ns: self.wall_ns[i].load(Ordering::Relaxed),
            cycles: 0,
        })
    }

    /// One `span` record per active span, tagged with `shard`
    /// when given (newline-terminated; empty when nothing was recorded).
    pub fn to_jsonl(&self, shard: Option<u64>) -> String {
        table_jsonl(&self.snapshot(), 1, shard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_ids_round_trip_and_parents_terminate() {
        for (i, span) in Span::ALL.iter().enumerate() {
            assert_eq!(span.id(), i as u64);
            assert_eq!(Span::from_id(i as u64), Some(*span));
            // Parent chains must reach a root without cycling.
            let mut cur = *span;
            let mut hops = 0;
            while let Some(p) = cur.parent() {
                cur = p;
                hops += 1;
                assert!(hops <= SPAN_COUNT, "parent cycle at {}", span.name());
            }
        }
        assert_eq!(Span::from_id(SPAN_COUNT as u64), None);
    }

    #[test]
    fn sampling_stride_selects_every_nth_tick() {
        let mut p = Profiler::new(ProfConfig { stride: 4 });
        let mut sampled = Vec::new();
        for tick in 0..12 {
            if p.begin_tick() {
                sampled.push(tick);
            }
            p.end_tick();
        }
        // The first executed tick is always sampled, then every 4th.
        assert_eq!(sampled, vec![0, 4, 8]);
    }

    #[cfg(feature = "observe")]
    #[test]
    fn laps_partition_a_sampled_stretch() {
        let mut p = Profiler::new(ProfConfig { stride: 1 });
        assert!(p.begin_tick());
        let mut s = p.stamp();
        assert!(s.is_some());
        std::hint::black_box(vec![0u8; 1024]);
        p.lap(Span::LlcMshrDrain, &mut s);
        p.lap(Span::HorizonCompute, &mut s);
        p.end_tick();
        assert_eq!(p.stat(Span::LlcMshrDrain).calls, 1);
        assert_eq!(p.stat(Span::HorizonCompute).calls, 1);
        assert!(!p.is_empty());
        // Unsampled stamps lap nothing.
        let mut none = None;
        p.lap(Span::DeferredDrain, &mut none);
        assert_eq!(p.stat(Span::DeferredDrain).calls, 0);
    }

    #[test]
    fn disabled_profiler_stamps_nothing() {
        let mut p = Profiler::new(ProfConfig::disabled());
        assert!(!p.enabled());
        assert!(p.stamp().is_none());
        assert!(p.is_empty());
        assert_eq!(p.to_jsonl(), "");
    }

    #[test]
    fn parse_matches_telemetry_conventions() {
        // `spans` follows every convention of `intervals`: the same explicit
        // numbers, the same `=0` off form, the same warn-and-default on a
        // malformed number, each token falling back to its own default.
        for value in ["", "=0", "=16", "= 128 ", "=lots", "=-3"] {
            let (iv, iv_warned) = observe::parse(Some(&format!("intervals{value}")));
            let (sp, sp_warned) = observe::parse(Some(&format!("spans{value}")));
            assert_eq!(sp_warned.len(), iv_warned.len(), "{value:?}");
            let defaulted = iv.interval == observe::DEFAULT_INTERVAL;
            assert_eq!(sp.stride == DEFAULT_STRIDE, defaulted, "{value:?}");
            if !defaulted {
                assert_eq!(sp.stride, iv.interval, "{value:?}");
            }
            assert_eq!((iv.stride, sp.interval), (0, 0), "{value:?}: tokens stay separate");
        }
    }

    #[cfg(feature = "observe")]
    #[test]
    fn jsonl_is_flat_numeric_and_carries_parent() {
        let mut p = Profiler::new(ProfConfig { stride: 8 });
        p.record_ns(Span::RunLoop, 1_000_000);
        p.add_cycles(Span::RunLoop, 500);
        assert!(p.begin_tick());
        let mut s = p.stamp();
        p.lap(Span::RetireDispatch, &mut s);
        p.end_tick();
        let text = p.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        let root = text.lines().next().unwrap();
        assert!(root.contains("\"span\":0"), "{root}");
        assert!(root.contains("\"stride\":1"), "{root}");
        assert!(root.contains("\"cycles\":500"), "{root}");
        assert!(!root.contains("\"parent\""), "root has no parent: {root}");
        let child = text.lines().nth(1).unwrap();
        assert!(child.contains("\"stride\":8"), "{child}");
        assert!(
            child.contains(&format!("\"parent\":{}", Span::Tick.id())),
            "{child}"
        );
    }

    #[test]
    fn shared_table_accumulates_across_threads() {
        let table = std::sync::Arc::new(SharedSpanTable::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let t = std::sync::Arc::clone(&table);
                scope.spawn(move || {
                    for _ in 0..100 {
                        t.record_ns(Span::Score, 250);
                    }
                });
            }
        });
        let snap = table.snapshot();
        assert_eq!(snap[Span::Score as usize].calls, 400);
        assert_eq!(snap[Span::Score as usize].wall_ns, 100_000);
        let jsonl = table.to_jsonl(Some(3));
        assert!(jsonl.contains("\"shard\":3"), "{jsonl}");
        assert_eq!(jsonl.lines().count(), 1);
    }

    #[cfg(feature = "observe")]
    #[test]
    fn lap_cost_is_subtracted() {
        let mut p = Profiler::new(ProfConfig { stride: 1 });
        // Force a known calibration larger than any real lap.
        p.lap_cost_ns = u64::MAX;
        assert!(p.begin_tick());
        let mut s = p.stamp();
        p.lap(Span::Tick, &mut s);
        assert_eq!(p.stat(Span::Tick).wall_ns, 0, "saturating subtraction");
        assert_eq!(p.stat(Span::Tick).calls, 1);
    }
}
