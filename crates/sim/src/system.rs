//! The simulated system: per-core pipeline + private caches, a shared LLC,
//! shared DRAM, and the prefetch path between them.
//!
//! The model is trace-driven and cycle-approximate. Each cycle, every core:
//!
//! 1. drains ready MSHR fills (waking dependent loads),
//! 2. retires completed instructions in order,
//! 3. dispatches new instructions from its trace (stalling on full MSHRs and
//!    on dependent loads whose producer is outstanding),
//! 4. issues queued prefetches.
//!
//! Demand misses are *latency-forwarded*: the full hierarchy latency and the
//! DRAM bank/bus schedule are computed when the request is accepted, and the
//! fill is delivered by the MSHR at that cycle. MSHR occupancy bounds the
//! memory-level parallelism, the DRAM bus bounds bandwidth — the two
//! first-order effects the PPF paper's results depend on.
//!
//! The run loop does not execute every cycle. Each tick computes the *event
//! horizon* — the earliest future cycle at which any state can change: the
//! min over every core's wake cycle (L2 MSHR completions, ROB head
//! completion, dispatch/issue eligibility), the LLC MSHR's `next_ready`, and
//! pending credit/eviction queues — and the loop jumps straight there,
//! bounded by the invariant checker's cadence. Skipped cycles are provably
//! no-ops, so results are bit-identical to naive per-cycle ticking (the
//! `PPF_NO_SKIP` escape hatch and the differential property tests pin this;
//! `DESIGN.md` §5d has the cycle-exactness argument).

use crate::addr;
use crate::cache::{Cache, FillKind};
use crate::config::SystemConfig;
use crate::dram::Dram;
use crate::fxhash::FxHashSet;
use crate::horizon::CycleStats;
use crate::mshr::{MissOrigin, MshrAlloc, MshrEntry, MshrFile};
use crate::prefetcher::{AccessContext, EvictionInfo, FillLevel, Prefetcher, PrefetchRequest};
use crate::prof::{ProfConfig, Profiler, Span};
use crate::rob::{Rob, PENDING};
use crate::stats::{CoreReport, PrefetchStats, SimReport, IPC_SAMPLE_WINDOW};
use crate::observe::Ring;
use crate::telemetry::{
    render_events, EventKind, FilterCounters, IntervalSnapshot, TelemetryConfig, TraceEvent,
    DEFAULT_RING_CAPACITY, EVENT_RING_CAPACITY,
};
use ppf_trace::{AccessKind, AccessPattern, TraceRecord};
use std::any::Any;
use std::collections::VecDeque;

/// Outcome of attempting to start a demand access.
enum Demand {
    /// Completes at the given cycle (hit somewhere, or non-blocking store).
    Done(u64),
    /// Outstanding; the ROB entry must wait on this block's L2 MSHR.
    Pending(u64),
    /// Resources exhausted; retry next cycle.
    Stall,
}

/// Shifts every record of an inner pattern into a per-core address space,
/// modelling the distinct physical pages of multi-programmed workloads.
struct AddressSpace<P> {
    inner: P,
    offset: u64,
}

impl<P: AccessPattern> AccessPattern for AddressSpace<P> {
    fn next_record(&mut self) -> TraceRecord {
        let mut rec = self.inner.next_record();
        rec.addr += self.offset;
        rec
    }
}

struct CoreUnit {
    workload: String,
    trace: Box<dyn AccessPattern>,
    rob: Rob,
    l1d: Cache,
    l2: Cache,
    l2_mshr: MshrFile,
    prefetcher: Box<dyn Prefetcher>,
    pq: VecDeque<PrefetchRequest>,
    /// Mirror of `pq` for O(1) dedup-at-enqueue membership checks (queue
    /// entries are unique, so a set mirrors the queue exactly).
    pq_set: FxHashSet<PrefetchRequest>,
    pf_stats: PrefetchStats,
    /// Outstanding demand misses (bounded by the L1 MSHR count); prefetches
    /// do not count, so they can use the L2 MSHR headroom.
    demand_outstanding: usize,
    // Dispatch state.
    work_left: u8,
    pending_rec: Option<TraceRecord>,
    last_dep_seq: Option<u64>,
    // Accounting.
    retired: u64,
    load_miss_waits: u64,
    load_miss_wait_cycles: u64,
    ipc_samples: Vec<f64>,
    last_sample: (u64, u64), // (retired, cycle) at the last window boundary
    measure_start: Option<(u64, u64)>, // (cycle, retired)
    measure_end_cycle: Option<u64>,
    snapshot: Option<CoreReport>,
    // Scratch buffer reused across triggers.
    scratch: Vec<PrefetchRequest>,
    /// Earliest cycle at which this core's state can change again: min of
    /// its L2 MSHR `next_ready`, its ROB head completion, and the
    /// dispatch/issue wake cycles returned by the phase functions. A core
    /// whose wake cycle has not arrived is skipped entirely by
    /// [`Simulation::tick`] (unless a shared LLC fill landed, which can
    /// unblock any core). Always `> cycle` after the core runs a tick.
    next_wake: u64,
    // Telemetry (inert single-slot ring unless telemetry is enabled).
    intervals: Ring<IntervalSnapshot>,
    interval_seq: u64,
}

/// A configured, runnable system.
///
/// Build with [`Simulation::new`], attach one `(trace, prefetcher)` pair per
/// configured core with [`Simulation::add_core`], then call
/// [`Simulation::run`].
pub struct Simulation {
    cfg: SystemConfig,
    cores: Vec<CoreUnit>,
    llc: Cache,
    llc_mshr: MshrFile,
    dram: Dram,
    cycle: u64,
    /// Deferred "useful prefetch" credits: (owner core, block byte addr).
    credits: Vec<(usize, u64)>,
    /// Deferred LLC-eviction notifications (unused prefetched victims).
    llc_evictions: Vec<EvictionInfo>,
    /// Cycles between invariant checks; `0` disables them (see
    /// [`crate::invariants`]). Sampled once at construction.
    invariant_period: u64,
    /// Whether the run loop may jump dead cycles (see [`crate::horizon`]).
    /// Sampled once at construction from `PPF_NO_SKIP`; override with
    /// [`Simulation::set_cycle_skip`].
    skip_cycles: bool,
    /// Cores that have not finished their measured region; the run loop
    /// stops at zero.
    unfinished: usize,
    /// Ticks actually executed (lifetime of this simulation).
    ticks_executed: u64,
    /// Cycles jumped over without executing a tick.
    skipped_cycles: u64,
    /// Scratch buffer for MSHR drains (LLC and per-core, reused serially).
    drain_scratch: Vec<(u64, MshrEntry)>,
    /// Telemetry settings (see [`crate::telemetry`]). Sampled once at
    /// construction from `PPF_OBSERVE`; override with
    /// [`Simulation::set_telemetry`] before attaching cores.
    telemetry: TelemetryConfig,
    /// Bounded trace of recent events (inert single-slot ring unless
    /// telemetry is enabled).
    events: Ring<TraceEvent>,
    /// Span profiler (see [`crate::prof`]). Sampled once at construction
    /// from `PPF_OBSERVE`; override with [`Simulation::set_profiling`].
    prof: Profiler,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("cores", &self.cores.len())
            .field("cycle", &self.cycle)
            .finish()
    }
}

impl Simulation {
    /// Creates an empty system for `cfg`.
    pub fn new(cfg: SystemConfig) -> Self {
        let llc = Cache::new(&cfg.llc);
        let llc_mshr = MshrFile::new(cfg.llc.mshrs);
        let dram = Dram::new(&cfg.dram);
        let mut sim = Self {
            cfg,
            cores: Vec::new(),
            llc,
            llc_mshr,
            dram,
            cycle: 0,
            credits: Vec::new(),
            llc_evictions: Vec::new(),
            invariant_period: crate::invariants::period(),
            skip_cycles: crate::horizon::skip_cycles_from_env(),
            unfinished: 0,
            ticks_executed: 0,
            skipped_cycles: 0,
            drain_scratch: Vec::new(),
            telemetry: TelemetryConfig::from_env(),
            events: Ring::new(1),
            prof: Profiler::new(ProfConfig::from_env()),
        };
        sim.events = Ring::new(sim.ring_capacity(EVENT_RING_CAPACITY));
        sim
    }

    /// Ring capacity for the current telemetry setting: `full` when
    /// telemetry is live, a single inert slot otherwise (so disabled runs
    /// pay no memory either).
    fn ring_capacity(&self, full: usize) -> usize {
        if self.telemetry_active() {
            full
        } else {
            1
        }
    }

    /// True when telemetry hooks should record. With the `observe` feature
    /// off, `cfg!` folds this to `false` and every hook body is eliminated.
    #[inline(always)]
    fn telemetry_active(&self) -> bool {
        cfg!(feature = "observe") && self.telemetry.interval != 0
    }

    /// Overrides the `PPF_OBSERVE`-derived telemetry settings (tests and
    /// harnesses that must not race on process-global environment). Resizes
    /// the snapshot/event rings, discarding anything already recorded, so call
    /// it before [`Simulation::run`]. Ignored (forced off) when the
    /// `observe` feature is not compiled in.
    pub fn set_telemetry(&mut self, cfg: TelemetryConfig) {
        self.telemetry =
            if cfg!(feature = "observe") { cfg } else { TelemetryConfig::disabled() };
        self.events = Ring::new(self.ring_capacity(EVENT_RING_CAPACITY));
        let cap = self.ring_capacity(DEFAULT_RING_CAPACITY);
        for core in &mut self.cores {
            core.intervals = Ring::new(cap);
            core.interval_seq = 0;
        }
    }

    /// The telemetry settings this simulation runs with.
    pub fn telemetry(&self) -> TelemetryConfig {
        self.telemetry
    }

    /// True when profiling hooks should record. With the `observe` feature
    /// off, `cfg!` folds this to `false` and every hook body is eliminated.
    #[inline(always)]
    fn prof_active(&self) -> bool {
        cfg!(feature = "observe") && self.prof.enabled()
    }

    /// Overrides the `PPF_OBSERVE`-derived profiling settings (tests and
    /// harnesses that must not race on process-global environment). Resets
    /// anything already recorded, so call it before [`Simulation::run`].
    /// Ignored (forced off) when the `observe` feature is not compiled in.
    pub fn set_profiling(&mut self, cfg: ProfConfig) {
        self.prof = Profiler::new(if cfg!(feature = "observe") {
            cfg
        } else {
            ProfConfig::disabled()
        });
    }

    /// The span profiler (empty unless profiling was enabled during
    /// [`Simulation::run`]).
    pub fn profiler(&self) -> &Profiler {
        &self.prof
    }

    /// The accumulated profile as `span` JSONL records (empty string when
    /// profiling was off or nothing ran).
    pub fn profile_jsonl(&self) -> String {
        self.prof.to_jsonl()
    }

    /// Overrides the `PPF_NO_SKIP`-derived cycle-skip setting (tests and
    /// differential harnesses that must not race on process-global
    /// environment). `false` forces the naive per-cycle loop; results are
    /// bit-identical either way, only wall-clock time differs.
    pub fn set_cycle_skip(&mut self, enabled: bool) {
        self.skip_cycles = enabled;
    }

    /// Whether the run loop may jump dead cycles.
    pub fn cycle_skip(&self) -> bool {
        self.skip_cycles
    }

    /// Cycle accounting over this simulation's lifetime: executed ticks,
    /// skipped cycles, and total cycles advanced.
    pub fn cycle_stats(&self) -> CycleStats {
        CycleStats {
            ticks: self.ticks_executed,
            skipped_cycles: self.skipped_cycles,
            total_cycles: self.cycle,
        }
    }

    /// The interval-snapshot ring of core `i` (empty unless telemetry was
    /// enabled during [`Simulation::run`]).
    pub fn interval_snapshots(&self, i: usize) -> &Ring<IntervalSnapshot> {
        &self.cores[i].intervals
    }

    /// All retained interval snapshots, ordered by `(core, seq)` — the
    /// layout the JSONL exporter writes.
    pub fn all_interval_snapshots(&self) -> Vec<IntervalSnapshot> {
        self.cores.iter().flat_map(|c| c.intervals.iter().copied()).collect()
    }

    /// The event-trace ring (empty unless telemetry was enabled).
    pub fn event_trace(&self) -> &Ring<TraceEvent> {
        &self.events
    }

    /// Core `i`'s prefetcher introspection dump (empty for schemes that
    /// track nothing).
    pub fn prefetcher_dump(&self, i: usize) -> String {
        self.cores[i].prefetcher.telemetry_dump()
    }

    /// Core `core`'s prefetcher as the concrete type `P` it was attached as,
    /// so a finished run's filter state (weights, event log, depth
    /// statistics) can be read back. `None` when `core` is out of range or
    /// its prefetcher is not a `P`.
    pub fn prefetcher<P: Prefetcher>(&self, core: usize) -> Option<&P> {
        let p: &dyn Any = &*self.cores.get(core)?.prefetcher;
        p.downcast_ref()
    }

    /// Attaches a core running `trace` with `prefetcher` on its L2.
    ///
    /// # Panics
    ///
    /// Panics if all configured cores are already attached.
    pub fn add_core(
        &mut self,
        workload: impl Into<String>,
        trace: Box<dyn AccessPattern>,
        prefetcher: Box<dyn Prefetcher>,
    ) {
        assert!(self.cores.len() < self.cfg.cores, "all configured cores already attached");
        // Each core gets its own 1 TB address-space slot so multi-programmed
        // workloads never alias (the paper's mixes are separate processes).
        let offset = (self.cores.len() as u64) << 40;
        let trace: Box<dyn AccessPattern> = Box::new(AddressSpace { inner: trace, offset });
        self.cores.push(CoreUnit {
            workload: workload.into(),
            trace,
            rob: Rob::new(self.cfg.core.rob_size),
            l1d: Cache::new(&self.cfg.l1d),
            l2: Cache::new(&self.cfg.l2),
            l2_mshr: MshrFile::new(self.cfg.l2.mshrs),
            prefetcher,
            pq: VecDeque::new(),
            pq_set: FxHashSet::default(),
            pf_stats: PrefetchStats::default(),
            demand_outstanding: 0,
            work_left: 0,
            pending_rec: None,
            last_dep_seq: None,
            retired: 0,
            load_miss_waits: 0,
            load_miss_wait_cycles: 0,
            ipc_samples: Vec::new(),
            last_sample: (0, 0),
            measure_start: None,
            measure_end_cycle: None,
            snapshot: None,
            scratch: Vec::new(),
            next_wake: 0,
            intervals: Ring::new(self.ring_capacity(DEFAULT_RING_CAPACITY)),
            interval_seq: 0,
        });
    }

    /// Runs `warmup` instructions per core (structures warm, stats then
    /// reset) followed by `measure` instructions per core, and reports the
    /// measurement region. Cores that finish early keep executing until the
    /// last core completes, preserving contention (paper Sec 5.3).
    ///
    /// # Panics
    ///
    /// Panics if the number of attached cores differs from the configuration,
    /// if `measure == 0`, or if the simulation fails to make forward progress.
    pub fn run(&mut self, warmup: u64, measure: u64) -> SimReport {
        assert_eq!(self.cores.len(), self.cfg.cores, "attach one core per configured core");
        assert!(measure > 0, "measurement region must be non-empty");
        let mut stats_reset = false;
        // Generous forward-progress bound, counted in *executed ticks*
        // (horizon iterations), not raw cycles: no workload sustains a CPI
        // over 2000, and an event-horizon jump crosses any number of dead
        // cycles in a single iteration, so a legitimate long skip cannot
        // trip the limit. A machine that stops retiring keeps burning
        // iterations (every executed tick sits on an event or an invariant
        // boundary) and still hits the assert; the naive per-cycle loop
        // burns one iteration per cycle, matching the old raw-cycle bound.
        let iteration_limit = (warmup + measure) * 2000 + 1_000_000;
        let mut iterations: u64 = 0;
        // Root profiling span: stamped once (stride 1), so the exported
        // profile always covers the run's whole wall time regardless of the
        // sampling stride the fine-grained spans use.
        let prof_run =
            if self.prof_active() { Some((std::time::Instant::now(), self.cycle)) } else { None };

        self.unfinished = self.cores.iter().filter(|c| c.measure_end_cycle.is_none()).count();
        while self.unfinished > 0 {
            self.cycle += 1;
            let horizon = self.tick(warmup, measure);
            if !stats_reset && self.cores.iter().all(|c| c.retired >= warmup) {
                stats_reset = true;
                for c in &mut self.cores {
                    c.l1d.stats.reset();
                    c.l2.stats.reset();
                    c.pf_stats.reset();
                    c.load_miss_waits = 0;
                    c.load_miss_wait_cycles = 0;
                }
                self.llc.stats.reset();
                self.dram.stats.reset();
            }
            iterations += 1;
            assert!(iterations < iteration_limit, "simulation failed to make forward progress");
            if self.skip_cycles && self.unfinished > 0 {
                // No fill in flight, no deferred queue pending, and every
                // unfinished core blocked with nothing to wait on: a genuine
                // deadlock the horizon makes immediately diagnosable (the
                // naive loop burns iterations until the limit above).
                assert!(
                    horizon != u64::MAX,
                    "simulation failed to make forward progress \
                     (no pending events, all cores stalled at cycle {})",
                    self.cycle
                );
                debug_assert!(horizon > self.cycle, "horizon must move forward");
                // Land exactly on the horizon (the loop head's increment
                // supplies the final +1), never jumping an invariant-check
                // boundary.
                let target = horizon
                    .min(crate::invariants::next_check(self.cycle, self.invariant_period))
                    .max(self.cycle + 1);
                self.skipped_cycles += target - 1 - self.cycle;
                self.cycle = target - 1;
            }
        }

        if let Some((t0, c0)) = prof_run {
            self.prof.record_ns(Span::RunLoop, t0.elapsed().as_nanos() as u64);
            self.prof.add_cycles(Span::RunLoop, self.cycle - c0);
        }

        let total_cycles = self
            .cores
            .iter()
            .map(|c| {
                let (start, _) = c.measure_start.expect("measured");
                c.measure_end_cycle.expect("finished") - start
            })
            .max()
            .unwrap_or(0);
        SimReport {
            cores: self.cores.iter().map(|c| c.snapshot.clone().expect("snapshot")).collect(),
            llc: self.llc.stats,
            dram: self.dram.stats,
            total_cycles,
        }
    }

    /// Runs one tick at the current cycle (the caller advances
    /// `self.cycle`) and returns the *event horizon*: the earliest future
    /// cycle at which any simulated state can change. Every cycle strictly
    /// between the current one and the horizon is provably a complete no-op
    /// — no MSHR fill completes, no core can retire, dispatch, or issue,
    /// and no deferred credit/eviction is pending — so the run loop may
    /// jump straight to the horizon without altering any observable result.
    fn tick(&mut self, warmup: u64, measure: u64) -> u64 {
        self.ticks_executed += 1;
        let cycle = self.cycle;
        let telem = self.telemetry_active();
        // Sampled tick anatomy: one tick in every `stride` gets stamped.
        // Consecutive laps share stamps, so the phase spans partition the
        // tick exactly; nested spans (inside `drain_core_fills` and
        // `start_demand`) keep their own stamps and are *included* in their
        // parent's lap — renderers subtract children for self time.
        let sampled = self.prof_active() && self.prof.begin_tick();
        let tick_t0 = if sampled { self.prof.stamp() } else { None };
        let mut ps = tick_t0;

        // Shared LLC fills. A drain frees LLC MSHR capacity and installs
        // lines that any core's dispatch or issue may be blocked on, so it
        // wakes every core this tick regardless of their private wake
        // estimates. `next_ready` is exact, so it gates the drain.
        let llc_event = self.llc_mshr.next_ready() <= cycle;
        if llc_event {
            self.drain_llc_fills(cycle);
        }
        self.prof.lap(Span::LlcMshrDrain, &mut ps);

        // Apply deferred useful-prefetch credits. These are late merges, so
        // they count in `late` only (`useful` holds timely prefetches; the
        // two are disjoint and summed by `useful_total`). Both deferred
        // queues drain in place, so their buffers are reused.
        if !self.credits.is_empty() {
            let Self { credits, cores, .. } = self;
            for (owner, byte_addr) in credits.drain(..) {
                let core = &mut cores[owner];
                core.pf_stats.late += 1;
                core.prefetcher.on_useful_prefetch(byte_addr);
            }
        }

        // Deliver LLC evictions of unused prefetched lines to every
        // prefetcher (filters match against their own tables).
        if !self.llc_evictions.is_empty() {
            let Self { llc_evictions, cores, events, .. } = self;
            for ev in llc_evictions.drain(..) {
                if telem {
                    // The LLC does not track which core prefetched the
                    // victim, so the event is unattributed (core = u32::MAX).
                    events.push(TraceEvent {
                        cycle,
                        core: u32::MAX,
                        kind: EventKind::EvictionTraining,
                        block: addr::block_number(ev.addr),
                        payload: 1,
                    });
                }
                for core in cores.iter_mut() {
                    core.prefetcher.on_llc_eviction(&ev);
                }
            }
        }
        self.prof.lap(Span::DeferredDrain, &mut ps);

        // Per-core phases, gated on each core's wake cycle. A sleeping
        // core's tick is a complete no-op — its L2 MSHR has nothing ready,
        // its ROB head is not complete, and its dispatch/issue are blocked
        // on conditions only its own activity or an LLC drain can change —
        // so skipping it is exact, not an approximation. With skipping
        // disabled every core runs every tick (the naive loop). A running
        // core's fill drain is gated on its exact `next_ready` too. Every
        // gated path still laps, so the phase spans partition the tick.
        let run_all = !self.skip_cycles || llc_event;
        for i in 0..self.cores.len() {
            if !run_all && self.cores[i].next_wake > cycle {
                continue;
            }
            if self.cores[i].l2_mshr.next_ready() <= cycle {
                self.drain_core_fills(i, cycle);
            }
            self.prof.lap(Span::CoreFillDrain, &mut ps);
            let dispatch_wake = self.retire_and_dispatch(i, cycle, warmup, measure);
            self.prof.lap(Span::RetireDispatch, &mut ps);
            let issue_wake = self.issue_prefetches(i, cycle);
            self.prof.lap(Span::IssuePrefetch, &mut ps);
            let core = &mut self.cores[i];
            // Retirement is bounded by the ROB head; a width-limited retire
            // burst is replayed cycle by cycle via the `cycle + 1` clamp.
            let retire_wake = match core.rob.head_completion() {
                Some(c) if c != PENDING => c.max(cycle + 1),
                // Empty, or head pending on memory: the L2 MSHR term below
                // covers the completing fill.
                _ => u64::MAX,
            };
            core.next_wake = core
                .l2_mshr
                .next_ready()
                .min(retire_wake)
                .min(dispatch_wake)
                .min(issue_wake);
            debug_assert!(core.next_wake > cycle, "a ticked core must wake in the future");
            self.prof.lap(Span::HorizonCompute, &mut ps);
        }

        if self.invariant_period != 0 && cycle.is_multiple_of(self.invariant_period) {
            self.enforce_invariants();
        }
        self.prof.lap(Span::InvariantCheck, &mut ps);

        // The event horizon: min over every way the system can next change
        // state. DRAM contributes no term because it is fully passive —
        // completions are registered as MSHR `ready_at`s at schedule time
        // (see `Dram::bus_busy_until`). Telemetry contributes none because
        // snapshots and events trigger on retirement and on actions, never
        // on bare cycles; the invariant-check cadence is applied as a bound
        // by the run loop via `invariants::next_check`.
        let mut horizon = self.llc_mshr.next_ready();
        if !self.credits.is_empty() || !self.llc_evictions.is_empty() {
            // Deferred queues filled this tick are processed next tick.
            horizon = horizon.min(cycle + 1);
        }
        for core in &self.cores {
            horizon = horizon.min(core.next_wake);
        }
        self.prof.lap(Span::HorizonCompute, &mut ps);
        if tick_t0.is_some() {
            self.prof.lap_total(Span::Tick, tick_t0);
            self.prof.add_cycles(Span::Tick, 1);
            self.prof.end_tick();
        }
        horizon
    }

    /// Validates every simulated structure's invariants, returning a
    /// description of the first violation: the shared LLC and its MSHR file,
    /// and per core the L1D, L2, L2 MSHR file, and prefetch queue (bounded
    /// by the configured size, exactly mirrored by its dedup set).
    pub fn check_invariants(&self) -> Result<(), String> {
        self.llc.check_invariants().map_err(|e| format!("llc: {e}"))?;
        self.llc_mshr.check_invariants().map_err(|e| format!("llc mshr: {e}"))?;
        for (i, core) in self.cores.iter().enumerate() {
            core.l1d.check_invariants().map_err(|e| format!("core {i} l1d: {e}"))?;
            core.l2.check_invariants().map_err(|e| format!("core {i} l2: {e}"))?;
            core.l2_mshr.check_invariants().map_err(|e| format!("core {i} l2 mshr: {e}"))?;
            if core.pq.len() > self.cfg.prefetch.queue_size {
                return Err(format!(
                    "core {i} prefetch queue holds {} entries, limit {}",
                    core.pq.len(),
                    self.cfg.prefetch.queue_size
                ));
            }
            if core.pq.len() != core.pq_set.len() {
                return Err(format!(
                    "core {i} prefetch queue ({}) and dedup set ({}) diverged",
                    core.pq.len(),
                    core.pq_set.len()
                ));
            }
            if let Some(req) = core.pq.iter().find(|r| !core.pq_set.contains(r)) {
                return Err(format!(
                    "core {i} queued prefetch of block {:#x} missing from dedup set",
                    req.block()
                ));
            }
        }
        Ok(())
    }

    /// Runs [`Simulation::check_invariants`] and, on a violation, dumps a
    /// diagnostic snapshot to stderr and panics. The panic is caught by the
    /// sweep harness's per-job isolation, so one corrupted simulation fails
    /// loudly without taking down the rest of a sweep.
    fn enforce_invariants(&self) {
        let Err(violation) = self.check_invariants() else { return };
        eprintln!("=== simulator invariant violation at cycle {} ===", self.cycle);
        eprintln!("  violation: {violation}");
        eprintln!(
            "  llc: occupancy {}/{} | llc mshr: {} in flight | dram reads {} writes {}",
            self.llc.occupancy(),
            self.llc.sets() * self.llc.ways(),
            self.llc_mshr.len(),
            self.dram.stats.reads,
            self.dram.stats.writes,
        );
        for (i, c) in self.cores.iter().enumerate() {
            eprintln!(
                "  core {i} ({}): retired {} | l2 mshr {} in flight | pq {} (set {}) \
                 | demand outstanding {}",
                c.workload,
                c.retired,
                c.l2_mshr.len(),
                c.pq.len(),
                c.pq_set.len(),
                c.demand_outstanding,
            );
        }
        if self.telemetry_active() {
            eprint!("{}", render_events(&self.events));
            for (i, c) in self.cores.iter().enumerate() {
                let dump = c.prefetcher.telemetry_dump();
                if !dump.is_empty() {
                    eprintln!("  core {i} prefetcher introspection:");
                    eprint!("{dump}");
                }
            }
        }
        panic!("simulator invariant violated at cycle {}: {violation}", self.cycle);
    }

    /// Completes ready LLC misses: fills the LLC (queueing the writebacks
    /// and eviction notices that causes) and notifies the owners of pure
    /// LLC-targeted prefetches.
    fn drain_llc_fills(&mut self, cycle: u64) {
        let telem = self.telemetry_active();
        let mut ready = std::mem::take(&mut self.drain_scratch);
        self.llc_mshr.drain_ready_into(cycle, &mut ready);
        for (block, entry) in ready.drain(..) {
            let kind = if entry.origin == MissOrigin::Prefetch && !entry.demand_merged {
                FillKind::Prefetch
            } else {
                FillKind::Demand
            };
            if telem && kind == FillKind::Prefetch {
                self.events.push(TraceEvent {
                    cycle,
                    core: entry.owner as u32,
                    kind: EventKind::Fill,
                    block,
                    payload: 1,
                });
            }
            if let Some(ev) = self.llc.fill(block, kind, entry.write) {
                if ev.dirty {
                    self.dram.schedule_write(ev.block, cycle);
                }
                self.note_llc_eviction(&ev);
            }
            if entry.origin == MissOrigin::Prefetch {
                // L2-bound prefetches have a twin entry in the owner's L2
                // MSHR whose drain will deliver the fill notification; only
                // pure LLC-targeted prefetches notify from here (otherwise
                // every prefetch would be counted twice).
                let l2_bound = self.cores[entry.owner].l2_mshr.get(block).is_some();
                if !l2_bound {
                    self.cores[entry.owner]
                        .prefetcher
                        .on_prefetch_fill(block << addr::BLOCK_BITS, FillLevel::Llc);
                }
            }
        }
        self.drain_scratch = ready;
    }

    /// Completes ready L2 misses for core `i`: fills L2 (and L1 for
    /// demand-visible data), trains the prefetcher on evictions, wakes ROB
    /// waiters.
    fn drain_core_fills(&mut self, i: usize, cycle: u64) {
        let telem = self.telemetry_active();
        let mut ready = std::mem::take(&mut self.drain_scratch);
        self.cores[i].l2_mshr.drain_ready_into(cycle, &mut ready);
        for (block, entry) in ready.drain(..) {
            let core = &mut self.cores[i];
            let kind = if entry.origin == MissOrigin::Prefetch && !entry.demand_merged {
                FillKind::Prefetch
            } else {
                FillKind::Demand
            };
            if telem && kind == FillKind::Prefetch {
                self.events.push(TraceEvent {
                    cycle,
                    core: i as u32,
                    kind: EventKind::Fill,
                    block,
                    payload: 0,
                });
            }
            if let Some(ev) = core.l2.fill(block, kind, entry.write) {
                if telem && ev.was_prefetch && !ev.was_used {
                    self.events.push(TraceEvent {
                        cycle,
                        core: i as u32,
                        kind: EventKind::EvictionTraining,
                        block: ev.block,
                        payload: 0,
                    });
                }
                let mut pf = self.prof.stamp();
                core.prefetcher.on_eviction(&EvictionInfo {
                    addr: ev.block << addr::BLOCK_BITS,
                    was_prefetch: ev.was_prefetch,
                    was_used: ev.was_used,
                });
                self.prof.lap(Span::PfFeedback, &mut pf);
                if ev.dirty {
                    if let Some(ev2) = self.llc.fill(ev.block, FillKind::Demand, true) {
                        if ev2.dirty {
                            self.dram.schedule_write(ev2.block, cycle);
                        }
                        self.note_llc_eviction(&ev2);
                    }
                }
            }
            let core = &mut self.cores[i];
            if kind == FillKind::Demand {
                if let Some(ev1) = core.l1d.fill(block, FillKind::Demand, entry.write) {
                    if ev1.dirty {
                        if let Some(ev) = core.l2.fill(ev1.block, FillKind::Demand, true) {
                            core.prefetcher.on_eviction(&EvictionInfo {
                                addr: ev.block << addr::BLOCK_BITS,
                                was_prefetch: ev.was_prefetch,
                                was_used: ev.was_used,
                            });
                            if ev.dirty {
                                if let Some(ev2) =
                                    self.llc.fill(ev.block, FillKind::Demand, true)
                                {
                                    if ev2.dirty {
                                        self.dram.schedule_write(ev2.block, cycle);
                                    }
                                    self.note_llc_eviction(&ev2);
                                }
                            }
                        }
                    }
                }
            }
            let core = &mut self.cores[i];
            if entry.origin == MissOrigin::Prefetch {
                let mut pf = self.prof.stamp();
                core.prefetcher.on_prefetch_fill(block << addr::BLOCK_BITS, FillLevel::L2);
                self.prof.lap(Span::PfFeedback, &mut pf);
            }
            if entry.counted_demand {
                core.demand_outstanding = core.demand_outstanding.saturating_sub(1);
            }
            for (seq, since) in entry.waiters {
                core.rob.complete(seq, cycle);
                core.load_miss_waits += 1;
                core.load_miss_wait_cycles += cycle - since;
            }
        }
        self.drain_scratch = ready;
    }

    /// Retires completed work, then dispatches new instructions.
    ///
    /// Returns the earliest cycle at which dispatch could make progress it
    /// cannot make now — `cycle + 1` when the full fetch width dispatched
    /// (more work is immediately available), the producer's completion
    /// cycle for a dependent load waiting on a known-finite completion, and
    /// `u64::MAX` for stalls that only an MSHR drain can clear (ROB full on
    /// a pending head, resources exhausted, producer pending): those are
    /// covered by the L2/LLC `next_ready` horizon terms.
    fn retire_and_dispatch(&mut self, i: usize, cycle: u64, warmup: u64, measure: u64) -> u64 {
        let retire_width = self.cfg.core.retire_width;
        let fetch_width = self.cfg.core.fetch_width;
        // With the `observe` feature off this folds to 0 and the snapshot
        // blocks below are dead code.
        let telemetry_interval =
            if self.telemetry_active() { self.telemetry.interval } else { 0 };
        let llc_demand_misses =
            if telemetry_interval != 0 { self.llc.stats.demand_misses() } else { 0 };

        let retired_now = self.cores[i].rob.retire(cycle, retire_width);
        {
            let core = &mut self.cores[i];
            core.retired += u64::from(retired_now);
            if core.measure_start.is_none() && core.retired >= warmup {
                core.measure_start = Some((cycle, core.retired));
                core.last_sample = (core.retired, cycle);
            }
            if let Some((start_cycle, start_retired)) = core.measure_start {
                if core.measure_end_cycle.is_none()
                    && core.retired >= core.last_sample.0 + IPC_SAMPLE_WINDOW
                {
                    let instr = core.retired - core.last_sample.0;
                    let cyc = cycle.saturating_sub(core.last_sample.1).max(1);
                    core.ipc_samples.push(instr as f64 / cyc as f64);
                    core.last_sample = (core.retired, cycle);
                }
                if telemetry_interval != 0 && core.measure_end_cycle.is_none() {
                    // Retirement is multi-wide, so a single retire call can
                    // cross a boundary by a few instructions (or, for
                    // pathological tiny intervals, several boundaries): one
                    // snapshot is taken at the highest boundary crossed.
                    let crossed = (core.retired - start_retired) / telemetry_interval;
                    if crossed > core.interval_seq {
                        core.intervals.push(IntervalSnapshot {
                            core: i as u32,
                            seq: crossed - 1,
                            instructions: core.retired - start_retired,
                            cycles: cycle - start_cycle,
                            l2: core.l2.stats,
                            llc_demand_misses,
                            prefetch: core.pf_stats,
                            filter: core.prefetcher.filter_counters(),
                        });
                        core.interval_seq = crossed;
                    }
                }
                if core.measure_end_cycle.is_none()
                    && core.retired >= start_retired + measure
                {
                    core.measure_end_cycle = Some(cycle);
                    self.unfinished -= 1;
                    core.snapshot = Some(CoreReport {
                        workload: core.workload.clone(),
                        instructions: core.retired - start_retired,
                        cycles: cycle - start_cycle,
                        l1d: core.l1d.stats,
                        l2: core.l2.stats,
                        prefetch: core.pf_stats,
                        load_miss_waits: core.load_miss_waits,
                        load_miss_wait_cycles: core.load_miss_wait_cycles,
                        ipc_samples: std::mem::take(&mut core.ipc_samples),
                    });
                    if telemetry_interval != 0 {
                        // Region-boundary snapshot, taken from the same
                        // values as the CoreReport above so the final
                        // interval's cumulative stats equal the end-of-run
                        // report exactly.
                        core.intervals.push(IntervalSnapshot {
                            core: i as u32,
                            seq: core.interval_seq,
                            instructions: core.retired - start_retired,
                            cycles: cycle - start_cycle,
                            l2: core.l2.stats,
                            llc_demand_misses,
                            prefetch: core.pf_stats,
                            filter: core.prefetcher.filter_counters(),
                        });
                        core.interval_seq += 1;
                    }
                }
            }
        }

        let mut dispatch_wake = cycle + 1;
        let mut slots = fetch_width as usize;
        while slots > 0 {
            let core = &mut self.cores[i];
            if !core.rob.has_space() {
                // Blocked on retirement: the retire-wake term (or, for a
                // pending head, the L2 MSHR drain) covers resumption.
                dispatch_wake = u64::MAX;
                break;
            }
            // Compute instructions between memory records: as many as the
            // fetch slots and free ROB entries allow, in one run.
            if core.work_left > 0 {
                let n = usize::from(core.work_left).min(slots).min(core.rob.free());
                core.rob.push_run(cycle + 1, n);
                core.work_left -= n as u8;
                slots -= n;
                continue;
            }
            // Get the next memory record; its compute prefix, if any,
            // dispatches first while the record stays pending.
            let rec = match core.pending_rec {
                Some(rec) => rec,
                None => {
                    let rec = core.trace.next_record();
                    core.work_left = rec.work;
                    core.pending_rec = Some(rec);
                    if rec.work > 0 {
                        continue;
                    }
                    rec
                }
            };
            // Dependent loads wait for their producer.
            if rec.dependent {
                if let Some(dep) = core.last_dep_seq {
                    match core.rob.completion_of(dep) {
                        Some(c) if c <= cycle => {}
                        None => {} // already retired
                        Some(c) => {
                            // Producer outstanding: stall. A finite
                            // completion is a known wake cycle; a pending
                            // one resolves via the L2 MSHR drain term.
                            dispatch_wake = if c == PENDING { u64::MAX } else { c };
                            break;
                        }
                    }
                }
            }
            match self.start_demand(i, &rec, cycle) {
                Demand::Done(t) => {
                    let core = &mut self.cores[i];
                    let seq = core.rob.push(t);
                    if rec.dependent {
                        core.last_dep_seq = Some(seq);
                    }
                    core.pending_rec = None;
                }
                Demand::Pending(block) => {
                    let core = &mut self.cores[i];
                    let seq = core.rob.push(PENDING);
                    core.l2_mshr.add_waiter(block, seq, cycle);
                    if rec.dependent {
                        core.last_dep_seq = Some(seq);
                    }
                    core.pending_rec = None;
                }
                Demand::Stall => {
                    // Resources exhausted: freed only by an L2 drain (demand
                    // window, L2 MSHRs) or an LLC drain (LLC MSHRs), both
                    // horizon terms already.
                    dispatch_wake = u64::MAX;
                    break;
                }
            }
            slots -= 1;
        }
        dispatch_wake
    }

    /// Attempts to start the demand access of `rec` for core `i`.
    ///
    /// Uses a check-then-commit discipline so a [`Demand::Stall`] leaves no
    /// counter or state disturbed (the dispatch retries next cycle).
    fn start_demand(&mut self, i: usize, rec: &TraceRecord, cycle: u64) -> Demand {
        let telem = self.telemetry_active();
        // `None` except during a sampled tick; stall paths leave the stamp
        // unlapped (their time lands in retire_dispatch self time).
        let mut ps = self.prof.stamp();
        let cfg = &self.cfg;
        let block = addr::block_number(rec.addr);
        let is_store = rec.kind == AccessKind::Store;
        let core = &mut self.cores[i];

        // L1 hit: fast path (one set scan checks and commits the access).
        if core.l1d.demand_hit(block, is_store).is_some() {
            self.prof.lap(Span::DemandLookup, &mut ps);
            return Demand::Done(cycle + cfg.l1d.latency);
        }

        // Check-and-commit the L2 in one scan too. A hit commits here, which
        // is safe under the Stall discipline: the hit path below can never
        // stall. A miss touches nothing until the resource checks pass.
        let l2_out = core.l2.demand_hit(block, is_store);
        let l2_latency = cfg.l1d.latency + cfg.l2.latency;

        if l2_out.is_none() {
            // Check resources before committing any counter updates.
            // Only loads occupy the L1 miss window; store misses drain
            // through the store buffer (they are bounded by L2 MSHRs only).
            let needs_demand_slot = !is_store
                && match core.l2_mshr.get(block) {
                    None => true,
                    Some(e) => e.origin == MissOrigin::Prefetch && !e.demand_merged,
                };
            if needs_demand_slot && core.demand_outstanding >= cfg.l1d.mshrs {
                return Demand::Stall;
            }
            if core.l2_mshr.get(block).is_none() {
                if core.l2_mshr.is_full() {
                    return Demand::Stall;
                }
                let llc_hit = self.llc.probe(block);
                let merged_llc = self.llc_mshr.get(block).is_some();
                if !llc_hit && !merged_llc && self.llc_mshr.is_full() {
                    return Demand::Stall;
                }
            }
        }

        // Commit: account the L1 miss and, on an L2 miss, the L2 access (the
        // hit already committed above), then trigger the prefetcher (every
        // L2 demand access, hit or miss — paper Fig. 4).
        let core = &mut self.cores[i];
        core.l1d.demand_access(block, is_store);
        let out = l2_out.unwrap_or_else(|| core.l2.demand_access(block, is_store));
        if telem && !out.hit {
            self.events.push(TraceEvent {
                cycle,
                core: i as u32,
                kind: EventKind::DemandMiss,
                block,
                payload: 0,
            });
        }
        if out.first_use_of_prefetch {
            core.pf_stats.useful += 1;
            core.prefetcher.on_useful_prefetch(block << addr::BLOCK_BITS);
        }
        self.prof.lap(Span::DemandLookup, &mut ps);
        let ctx = AccessContext {
            pc: rec.pc,
            addr: rec.addr,
            is_store,
            l2_hit: out.hit,
            cycle,
            core: i,
        };
        let counters_before = if telem {
            core.prefetcher.filter_counters()
        } else {
            FilterCounters::default()
        };
        let mut scratch = std::mem::take(&mut core.scratch);
        scratch.clear();
        core.prefetcher.on_demand_access(&ctx, &mut scratch);
        if telem {
            let d = core.prefetcher.filter_counters().delta(&counters_before);
            if d.inferences > 0 {
                self.events.push(TraceEvent {
                    cycle,
                    core: i as u32,
                    kind: EventKind::PpfVerdict,
                    block,
                    payload: ((d.accepted_l2 + d.accepted_llc) << 32)
                        | (d.rejected & 0xffff_ffff),
                });
            }
        }
        self.prof.lap(Span::CandidateGen, &mut ps);
        core.pf_stats.emitted += scratch.len() as u64;
        for req in scratch.drain(..) {
            // Dedup at enqueue: resident or in-flight targets never reach
            // the queue, so bursts of lookahead re-suggestions cannot crowd
            // out fresh (deep) candidates.
            let req_block = req.block();
            let redundant = match req.fill {
                FillLevel::L2 => {
                    core.l2.probe(req_block)
                        || core.l2_mshr.get(req_block).is_some()
                        || core.pq_set.contains(&req)
                }
                FillLevel::Llc => {
                    self.llc.probe(req_block)
                        || self.llc_mshr.get(req_block).is_some()
                        || core.pq_set.contains(&req)
                }
            };
            if redundant {
                core.pf_stats.dropped_redundant += 1;
            } else if core.pq.len() < cfg.prefetch.queue_size {
                core.pq.push_back(req);
                core.pq_set.insert(req);
            } else {
                core.pf_stats.dropped_queue += 1;
            }
        }
        core.scratch = scratch;
        self.prof.lap(Span::PfEnqueue, &mut ps);

        if out.hit {
            let done = cycle + l2_latency;
            // Bring the line into L1 (write-allocate).
            if let Some(ev1) = core.l1d.fill(block, FillKind::Demand, is_store) {
                if ev1.dirty {
                    self.writeback_l1_victim(i, ev1.block, cycle);
                }
            }
            self.prof.lap(Span::DemandLookup, &mut ps);
            return Demand::Done(done);
        }

        // L2 miss: merge or allocate.
        let core = &mut self.cores[i];
        if let Some(entry) = core.l2_mshr.get(block) {
            let was_unclaimed_prefetch =
                entry.origin == MissOrigin::Prefetch && !entry.demand_merged;
            core.l2_mshr.allocate(block, 0, MissOrigin::Demand, is_store, i);
            if was_unclaimed_prefetch {
                if !is_store {
                    core.demand_outstanding += 1;
                    if let Some(e) = core.l2_mshr.get_mut(block) {
                        e.counted_demand = true;
                    }
                }
                core.pf_stats.late += 1;
                let remaining = core
                    .l2_mshr
                    .get(block)
                    .map_or(0, |e| e.ready_at.saturating_sub(cycle));
                core.pf_stats.late_wait_cycles += remaining;
                core.prefetcher.on_useful_prefetch(block << addr::BLOCK_BITS);
            }
            self.prof.lap(Span::DemandLookup, &mut ps);
            return if is_store {
                Demand::Done(cycle + 1) // store completes; fill proceeds
            } else {
                Demand::Pending(block)
            };
        }

        // New L2 miss: consult LLC.
        let llc_out = self.llc.demand_access(block, is_store);
        let ready = if llc_out.hit {
            if llc_out.first_use_of_prefetch {
                // LLC-level prefetch proved useful; credit this core.
                let core = &mut self.cores[i];
                core.pf_stats.useful += 1;
                core.prefetcher.on_useful_prefetch(block << addr::BLOCK_BITS);
            }
            cycle + l2_latency + self.cfg.llc.latency
        } else {
            match self.llc_mshr.get(block) {
                Some(entry) => {
                    let was_unclaimed =
                        entry.origin == MissOrigin::Prefetch && !entry.demand_merged;
                    let owner = entry.owner;
                    let MshrAlloc::Merged(t) =
                        self.llc_mshr.allocate(block, 0, MissOrigin::Demand, is_store, i)
                    else {
                        unreachable!("entry exists")
                    };
                    if was_unclaimed {
                        // Credit the prefetch's owner (possibly another core).
                        self.credits.push((owner, block << addr::BLOCK_BITS));
                    }
                    t
                }
                None => {
                    let at = cycle + l2_latency + self.cfg.llc.latency;
                    let done = self.dram.schedule_read(block, at);
                    let alloc =
                        self.llc_mshr.allocate(block, done, MissOrigin::Demand, is_store, i);
                    debug_assert_eq!(alloc, MshrAlloc::Allocated);
                    done
                }
            }
        };
        let core = &mut self.cores[i];
        let alloc = core.l2_mshr.allocate(block, ready, MissOrigin::Demand, is_store, i);
        debug_assert_eq!(alloc, MshrAlloc::Allocated);
        if !is_store {
            core.demand_outstanding += 1;
            if let Some(e) = core.l2_mshr.get_mut(block) {
                e.counted_demand = true;
            }
        }
        self.prof.lap(Span::DemandLookup, &mut ps);
        if is_store {
            Demand::Done(cycle + 1)
        } else {
            Demand::Pending(block)
        }
    }

    /// Handles a dirty L1 victim: write it into the L2 (refresh or insert),
    /// cascading evictions down the hierarchy.
    fn writeback_l1_victim(&mut self, i: usize, victim_block: u64, cycle: u64) {
        let core = &mut self.cores[i];
        if let Some(ev) = core.l2.fill(victim_block, FillKind::Demand, true) {
            core.prefetcher.on_eviction(&EvictionInfo {
                addr: ev.block << addr::BLOCK_BITS,
                was_prefetch: ev.was_prefetch,
                was_used: ev.was_used,
            });
            if ev.dirty {
                if let Some(ev2) = self.llc.fill(ev.block, FillKind::Demand, true) {
                    if ev2.dirty {
                        self.dram.schedule_write(ev2.block, cycle);
                    }
                    self.note_llc_eviction(&ev2);
                }
            }
        }
    }

    /// Queues an LLC-eviction notification if the victim was an unused
    /// prefetch (delivered to every core's prefetcher next cycle).
    fn note_llc_eviction(&mut self, ev: &crate::cache::Evicted) {
        if ev.was_prefetch && !ev.was_used {
            self.llc_evictions.push(EvictionInfo {
                addr: ev.block << addr::BLOCK_BITS,
                was_prefetch: true,
                was_used: false,
            });
        }
    }

    /// Issues up to the configured number of prefetches from core `i`'s
    /// queue.
    ///
    /// Returns the earliest cycle at which issue could make progress it
    /// cannot make now — `cycle + 1` when the per-cycle budget ran out with
    /// work still queued, `u64::MAX` when the queue is empty (dispatch
    /// refills it, covered by the dispatch wake) or when the head is held
    /// on MSHR headroom (freed only by an L2 or LLC drain, both horizon
    /// terms already). The queue head's redundancy status cannot change
    /// while this core sleeps: its blocks are private (per-core address
    /// spaces), so only its own activity or an LLC drain — which wakes
    /// every core — can install or retire them.
    fn issue_prefetches(&mut self, i: usize, cycle: u64) -> u64 {
        if self.cores[i].pq.is_empty() {
            return u64::MAX;
        }
        let telem = self.telemetry_active();
        let mut budget = self.cfg.prefetch.issue_per_cycle;
        while budget > 0 {
            let Some(&req) = self.cores[i].pq.front() else { break };
            let block = req.block();
            match req.fill {
                FillLevel::L2 => {
                    let core = &mut self.cores[i];
                    if core.l2.probe(block) || core.l2_mshr.get(block).is_some() {
                        core.pf_stats.dropped_redundant += 1;
                        core.pq.pop_front();
                        core.pq_set.remove(&req);
                        continue;
                    }
                    // Prefetches may not occupy the demand headroom: keep as
                    // many L2 MSHRs free as demands can have outstanding.
                    if core.l2_mshr.len() + self.cfg.l1d.mshrs >= self.cfg.l2.mshrs {
                        // Hold the request; MSHRs free up in later cycles.
                        break;
                    }
                    let base = cycle + self.cfg.l2.latency;
                    let ready = if self.llc.touch(block) {
                        base + self.cfg.llc.latency
                    } else if let Some(e) = self.llc_mshr.get(block) {
                        e.ready_at
                    } else if self.llc_mshr.len() + self.cfg.l1d.mshrs * self.cfg.cores
                        >= self.cfg.llc.mshrs
                    {
                        break;
                    } else {
                        let done = self
                            .dram
                            .schedule_prefetch_read(block, base + self.cfg.llc.latency);
                        self.llc_mshr.allocate(block, done, MissOrigin::Prefetch, false, i);
                        done
                    };
                    let core = &mut self.cores[i];
                    core.l2_mshr.allocate(block, ready, MissOrigin::Prefetch, false, i);
                    core.pf_stats.issued += 1;
                    if telem {
                        self.events.push(TraceEvent {
                            cycle,
                            core: i as u32,
                            kind: EventKind::PrefetchIssue,
                            block,
                            payload: 0,
                        });
                    }
                    core.pq.pop_front();
                    core.pq_set.remove(&req);
                    budget -= 1;
                }
                FillLevel::Llc => {
                    if self.llc.probe(block) || self.llc_mshr.get(block).is_some() {
                        let core = &mut self.cores[i];
                        core.pf_stats.dropped_redundant += 1;
                        core.pq.pop_front();
                        core.pq_set.remove(&req);
                        continue;
                    }
                    if self.llc_mshr.len() + self.cfg.l1d.mshrs * self.cfg.cores
                        >= self.cfg.llc.mshrs
                    {
                        break;
                    }
                    let at = cycle + self.cfg.l2.latency + self.cfg.llc.latency;
                    let done = self.dram.schedule_prefetch_read(block, at);
                    self.llc_mshr.allocate(block, done, MissOrigin::Prefetch, false, i);
                    self.cores[i].pf_stats.issued += 1;
                    if telem {
                        self.events.push(TraceEvent {
                            cycle,
                            core: i as u32,
                            kind: EventKind::PrefetchIssue,
                            block,
                            payload: 1,
                        });
                    }
                    self.cores[i].pq.pop_front();
                    self.cores[i].pq_set.remove(&req);
                    budget -= 1;
                }
            }
        }
        if self.cores[i].pq.is_empty() {
            u64::MAX
        } else if budget == 0 {
            cycle + 1
        } else {
            // Held on MSHR headroom: only a drain frees capacity.
            u64::MAX
        }
    }
}

/// Convenience: runs a single-core simulation of `workload` + `prefetcher`.
///
/// `warmup` and `measure` are instruction counts.
pub fn run_single_core(
    cfg: SystemConfig,
    workload_name: &str,
    trace: Box<dyn AccessPattern>,
    prefetcher: Box<dyn Prefetcher>,
    warmup: u64,
    measure: u64,
) -> SimReport {
    assert_eq!(cfg.cores, 1, "run_single_core needs a 1-core config");
    let mut sim = Simulation::new(cfg);
    sim.add_core(workload_name, trace, prefetcher);
    sim.run(warmup, measure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefetcher::NoPrefetcher;
    use ppf_trace::{SequentialStream, TraceBuilder, Workload};

    fn small_cfg() -> SystemConfig {
        SystemConfig::single_core()
    }

    #[test]
    fn sequential_stream_runs_and_reports() {
        let trace = Box::new(SequentialStream::new(0x100_0000, 1 << 14, 0x400000, 2));
        let report = run_single_core(
            small_cfg(),
            "seq",
            trace,
            Box::new(NoPrefetcher),
            10_000,
            50_000,
        );
        assert_eq!(report.cores.len(), 1);
        let c = &report.cores[0];
        assert!(c.instructions >= 50_000);
        assert!(c.ipc() > 0.0 && c.ipc() <= 4.0, "ipc {}", c.ipc());
        // A 1 MB footprint stream misses in L1/L2 constantly.
        assert!(c.l2.demand_misses() > 0);
    }

    #[test]
    fn compute_bound_core_hits_retire_width() {
        // All work, minimal memory: tiny footprint, huge work per record.
        let trace = Box::new(SequentialStream::new(0x100_0000, 4, 0x400000, 60));
        let report =
            run_single_core(small_cfg(), "comp", trace, Box::new(NoPrefetcher), 5_000, 50_000);
        let ipc = report.ipc();
        assert!(ipc > 3.0, "compute-bound IPC should approach 4, got {ipc}");
    }

    #[test]
    fn compute_ops_retire_the_cycle_after_dispatch() {
        // Each record starts with 60 compute ops, so the region's first 60
        // instructions are all compute: the first fetch group dispatches at
        // cycle 1 and retires from cycle 2 on, 4 per cycle, so they take
        // 15 cycles. A compute op completing any later shifts that count.
        let trace = Box::new(SequentialStream::new(0x100_0000, 4, 0x400000, 60));
        let r = run_single_core(small_cfg(), "comp", trace, Box::new(NoPrefetcher), 0, 60);
        assert_eq!(r.cores[0].instructions, 60);
        assert_eq!(r.cores[0].cycles, 15);
    }

    #[test]
    fn memory_bound_core_is_slow() {
        // Dependent pointer chase over 32 MB: every load is a serialized DRAM miss.
        let w = Workload::by_name("605.mcf_s").unwrap();
        let trace = Box::new(TraceBuilder::new(w).seed(1).build());
        let report =
            run_single_core(small_cfg(), "mcf", trace, Box::new(NoPrefetcher), 5_000, 30_000);
        assert!(report.ipc() < 0.5, "latency-bound IPC should be low, got {}", report.ipc());
    }

    #[test]
    fn horizon_skipping_matches_naive_ticking() {
        let mk = |skip: bool| {
            let w = Workload::by_name("605.mcf_s").unwrap();
            let trace = Box::new(TraceBuilder::new(w).seed(7).build());
            let mut sim = Simulation::new(small_cfg());
            sim.set_cycle_skip(skip);
            sim.add_core("mcf", trace, Box::new(StreamAhead));
            let report = sim.run(5_000, 20_000);
            (report, sim.cycle_stats())
        };
        let (naive, naive_cycles) = mk(false);
        let (skip, skip_cycles) = mk(true);
        assert_eq!(naive, skip, "event horizon must be bit-identical to per-cycle ticking");
        assert_eq!(naive_cycles.total_cycles, skip_cycles.total_cycles);
        assert_eq!(naive_cycles.skipped_cycles, 0);
        assert!(
            skip_cycles.skipped_cycles > 0,
            "a latency-bound pointer chase must have skippable dead time"
        );
        assert_eq!(
            skip_cycles.ticks + skip_cycles.skipped_cycles,
            skip_cycles.total_cycles,
            "every cycle is either executed or skipped"
        );
    }

    #[test]
    fn cycle_skip_env_override_is_programmatic() {
        let mut sim = Simulation::new(small_cfg());
        let from_env = sim.cycle_skip();
        sim.set_cycle_skip(!from_env);
        assert_eq!(sim.cycle_skip(), !from_env);
        sim.set_cycle_skip(from_env);
        assert_eq!(sim.cycle_skip(), from_env);
    }

    #[test]
    fn deterministic_across_runs() {
        let mk = || {
            let w = Workload::by_name("602.gcc_s").unwrap();
            let trace = Box::new(TraceBuilder::new(w).seed(3).shrink(3).build());
            run_single_core(small_cfg(), "gcc", trace, Box::new(NoPrefetcher), 5_000, 20_000)
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.cores[0].cycles, b.cores[0].cycles);
        assert_eq!(a.llc.demand_accesses, b.llc.demand_accesses);
        assert_eq!(a.dram.reads, b.dram.reads);
    }

    /// A stream prefetcher running 40 blocks ahead — far enough to beat the
    /// demand window (L1 MSHR bound) — used to validate the prefetch path.
    struct StreamAhead;
    impl Prefetcher for StreamAhead {
        fn on_demand_access(&mut self, ctx: &AccessContext, out: &mut Vec<PrefetchRequest>) {
            for d in 40..48 {
                out.push(PrefetchRequest::new(ctx.addr + d * addr::BLOCK_SIZE, FillLevel::L2));
            }
        }
        fn name(&self) -> &'static str {
            "stream-ahead-test"
        }
    }

    /// Counts its triggers, so a test can read its state back after a run.
    #[derive(Default)]
    struct Counting {
        triggers: u64,
    }
    impl Prefetcher for Counting {
        fn on_demand_access(&mut self, _ctx: &AccessContext, _out: &mut Vec<PrefetchRequest>) {
            self.triggers += 1;
        }
        fn name(&self) -> &'static str {
            "counting-test"
        }
    }

    #[test]
    fn prefetcher_reads_the_attached_type_back_after_run() {
        let mut sim = Simulation::new(small_cfg());
        let trace = Box::new(SequentialStream::new(0x100_0000, 1 << 14, 0x400000, 2));
        sim.add_core("seq", trace, Box::new(Counting::default()));
        assert_eq!(sim.prefetcher::<Counting>(0).map(|c| c.triggers), Some(0));
        let r = sim.run(5_000, 40_000);
        let c = sim.prefetcher::<Counting>(0).expect("core 0 runs a Counting");
        // Warmup triggers count too, so the total covers the measured region.
        assert!(c.triggers > 0 && c.triggers >= r.cores[0].l2.demand_accesses);
    }

    #[test]
    fn prefetcher_is_none_for_another_type_or_core() {
        let mut sim = Simulation::new(SystemConfig::multi_core(2));
        assert!(sim.prefetcher::<NoPrefetcher>(0).is_none(), "no core attached yet");
        let pfs: [Box<dyn Prefetcher>; 2] = [Box::new(NoPrefetcher), Box::new(Counting::default())];
        for (i, pf) in pfs.into_iter().enumerate() {
            let trace = Box::new(SequentialStream::new(0x100_0000, 1 << 12, 0x400000, 2));
            sim.add_core(format!("seq{i}"), trace, pf);
        }
        assert!(sim.prefetcher::<NoPrefetcher>(0).is_some());
        assert!(sim.prefetcher::<Counting>(0).is_none(), "core 0 runs no Counting");
        assert!(sim.prefetcher::<Counting>(1).is_some());
        assert!(sim.prefetcher::<StreamAhead>(1).is_none());
        // The box is storage, not the attached type.
        assert!(sim.prefetcher::<Box<dyn Prefetcher>>(1).is_none());
        assert!(sim.prefetcher::<Counting>(2).is_none(), "out-of-range core");
        assert!(sim.prefetcher::<Counting>(usize::MAX).is_none());
    }

    #[test]
    fn next_line_prefetcher_improves_sequential() {
        // 1 MB footprint: fits the LLC, misses the 512 KB L2 — the prefetch
        // moves lines LLC->L2 ahead of use without DRAM bandwidth cost.
        let mk = |pf: Box<dyn Prefetcher>| {
            let trace = Box::new(SequentialStream::new(0x100_0000, 1 << 14, 0x400000, 2));
            run_single_core(small_cfg(), "seq", trace, pf, 10_000, 80_000)
        };
        let base = mk(Box::new(NoPrefetcher));
        let pf = mk(Box::new(StreamAhead));
        assert!(
            pf.ipc() > base.ipc() * 1.1,
            "stream prefetching should speed up a stream: {} vs {}",
            pf.ipc(),
            base.ipc()
        );
        assert!(pf.cores[0].prefetch.issued > 0);
        assert!(pf.cores[0].prefetch.useful > 0, "40-ahead stream must be timely");
        // Coverage: fewer L2 demand misses than baseline.
        assert!(pf.cores[0].l2.demand_misses() < base.cores[0].l2.demand_misses());
    }

    #[test]
    fn prefetch_stats_consistent() {
        let trace = Box::new(SequentialStream::new(0x100_0000, 1 << 15, 0x400000, 2));
        let r = run_single_core(small_cfg(), "seq", trace, Box::new(StreamAhead), 5_000, 40_000);
        let p = &r.cores[0].prefetch;
        assert!(p.emitted >= p.issued);
        // `useful_total` may slightly exceed `issued` because prefetches
        // issued during warmup (whose issue count was reset) turn useful
        // afterwards.
        assert!(
            p.useful_total() <= p.issued + p.issued / 4 + 200,
            "useful_total {} wildly exceeds issued {}",
            p.useful_total(),
            p.issued
        );
        // Timely and late are disjoint: each is at most the total.
        assert!(p.useful <= p.useful_total() && p.late <= p.useful_total());
    }

    /// A stream prefetcher running only 2 blocks ahead — the demand stream
    /// catches its fills while still in flight, so its useful prefetches are
    /// overwhelmingly late merges.
    struct StreamNear;
    impl Prefetcher for StreamNear {
        fn on_demand_access(&mut self, ctx: &AccessContext, out: &mut Vec<PrefetchRequest>) {
            out.push(PrefetchRequest::new(ctx.addr + 2 * addr::BLOCK_SIZE, FillLevel::L2));
        }
        fn name(&self) -> &'static str {
            "stream-near-test"
        }
    }

    #[test]
    fn late_merges_count_once_not_twice() {
        let trace = Box::new(SequentialStream::new(0x100_0000, 1 << 15, 0x400000, 2));
        let r = run_single_core(small_cfg(), "seq", trace, Box::new(StreamNear), 5_000, 40_000);
        let p = &r.cores[0].prefetch;
        assert!(p.late > 0, "2-ahead stream must produce late merges");
        // A late merge lands in `late` only; `useful` holds timely fills,
        // which a 2-block lookahead against memory latency rarely manages.
        // Before the fix the merge sites bumped both counters, so `useful`
        // was always >= `late` here.
        assert!(
            p.useful < p.late,
            "timely useful {} should be rare next to late {}",
            p.useful,
            p.late
        );
        assert_eq!(p.useful_total(), p.useful + p.late);
    }

    #[test]
    fn multicore_shares_llc_and_dram() {
        let mut sim = Simulation::new(SystemConfig::multi_core(2));
        for seed in 0..2 {
            let w = Workload::by_name("619.lbm_s").unwrap();
            let trace = Box::new(TraceBuilder::new(w).seed(seed).build());
            sim.add_core(format!("lbm{seed}"), trace, Box::new(NoPrefetcher));
        }
        let r = sim.run(5_000, 30_000);
        assert_eq!(r.cores.len(), 2);
        assert!(r.cores.iter().all(|c| c.instructions >= 30_000));
        assert!(r.dram.reads > 0);
    }

    #[test]
    fn bandwidth_contention_slows_cores() {
        // One lbm core alone vs. four sharing the channel.
        let solo = {
            let w = Workload::by_name("619.lbm_s").unwrap();
            let trace = Box::new(TraceBuilder::new(w).seed(0).build());
            run_single_core(small_cfg(), "lbm", trace, Box::new(NoPrefetcher), 5_000, 30_000)
                .ipc()
        };
        let mut sim = Simulation::new(SystemConfig::multi_core(4));
        for seed in 0..4 {
            let w = Workload::by_name("619.lbm_s").unwrap();
            let trace = Box::new(TraceBuilder::new(w).seed(seed).build());
            sim.add_core(format!("lbm{seed}"), trace, Box::new(NoPrefetcher));
        }
        let shared = sim.run(5_000, 30_000);
        let worst = shared.cores.iter().map(|c| c.ipc()).fold(f64::INFINITY, f64::min);
        assert!(
            worst < solo,
            "sharing one DRAM channel must hurt a bandwidth-bound core: {worst} vs {solo}"
        );
    }

    /// A prefetcher that targets the LLC only.
    struct LlcOnly;
    impl Prefetcher for LlcOnly {
        fn on_demand_access(&mut self, ctx: &AccessContext, out: &mut Vec<PrefetchRequest>) {
            for d in 40..44 {
                out.push(PrefetchRequest::new(
                    ctx.addr + d * addr::BLOCK_SIZE,
                    FillLevel::Llc,
                ));
            }
        }
        fn name(&self) -> &'static str {
            "llc-only-test"
        }
    }

    #[test]
    fn llc_fill_prefetches_do_not_enter_l2() {
        let trace = Box::new(SequentialStream::new(0x100_0000, 1 << 15, 0x400000, 8));
        let r = run_single_core(small_cfg(), "seq", trace, Box::new(LlcOnly), 10_000, 60_000);
        let c = &r.cores[0];
        assert!(c.prefetch.issued > 0, "LLC prefetches must issue");
        // The L2 never receives prefetch fills from an LLC-targeted stream.
        assert_eq!(c.l2.prefetch_fills, 0);
        // The LLC-side prefetches still deliver data (either as timely
        // prefetch fills or as late merges that demands wait on).
        assert!(c.prefetch.useful_total() > 0);
    }

    #[test]
    fn store_misses_outpace_load_misses() {
        // Stores complete at dispatch + 1 and are bounded by L2 MSHRs (32),
        // not the 8-deep L1 load-miss window — an all-store miss stream must
        // clearly outpace the equivalent all-load stream.
        // LLC-resident footprint: misses resolve from the LLC, so DRAM
        // bandwidth cannot mask the load-window difference.
        let mk = |stores: bool| {
            let mut t = SequentialStream::new(0x100_0000, 1 << 14, 0x400000, 2);
            if stores {
                t = t.with_stores_every(1);
            }
            run_single_core(small_cfg(), "s", Box::new(t), Box::new(NoPrefetcher), 200_000, 40_000)
        };
        let stores = mk(true);
        let loads = mk(false);
        assert!(
            stores.ipc() > loads.ipc() * 1.3,
            "store stream {} should outpace load stream {}",
            stores.ipc(),
            loads.ipc()
        );
    }

    #[test]
    fn warmup_resets_measurement_counters() {
        let mk = |warmup| {
            let trace = Box::new(SequentialStream::new(0x100_0000, 1 << 14, 0x400000, 2));
            run_single_core(small_cfg(), "seq", trace, Box::new(NoPrefetcher), warmup, 30_000)
        };
        let cold = mk(1_000);
        let warm = mk(200_000);
        // After a long warmup the stream wraps inside the LLC, so the
        // measured region sees far fewer LLC misses than a cold run.
        assert!(
            warm.llc.demand_misses() < cold.llc.demand_misses() / 2,
            "warmup did not carry cache state: {} vs {}",
            warm.llc.demand_misses(),
            cold.llc.demand_misses()
        );
    }

    #[test]
    fn demand_outstanding_bounded_by_l1_mshrs() {
        // A workload of independent misses cannot have more demand misses in
        // flight than L1 MSHRs; with 8 MSHRs and ~150-cycle misses the
        // *average* miss wait cannot drop below latency/8 per miss.
        let trace = Box::new(SequentialStream::new(0x100_0000, 1 << 16, 0x400000, 0));
        let r = run_single_core(small_cfg(), "seq", trace, Box::new(NoPrefetcher), 5_000, 30_000);
        let c = &r.cores[0];
        assert!(c.load_miss_waits > 0);
        assert!(c.avg_load_miss_wait() > 20.0, "MLP cannot exceed the MSHR bound");
    }

    #[test]
    fn invariants_hold_after_prefetching_run() {
        let trace = Box::new(SequentialStream::new(0x100_0000, 1 << 14, 0x400000, 2));
        let mut sim = Simulation::new(small_cfg());
        sim.add_core("seq", trace, Box::new(StreamAhead));
        sim.run(5_000, 30_000);
        sim.check_invariants().expect("a clean run ends with consistent structures");
    }

    #[test]
    fn invariants_catch_prefetch_queue_desync() {
        let trace = Box::new(SequentialStream::new(0x100_0000, 1 << 14, 0x400000, 2));
        let mut sim = Simulation::new(small_cfg());
        sim.add_core("seq", trace, Box::new(NoPrefetcher));
        // Corrupt: queue an entry without mirroring it into the dedup set.
        sim.cores[0]
            .pq
            .push_back(PrefetchRequest::new(0x100_0000, FillLevel::L2));
        let err = sim.check_invariants().unwrap_err();
        assert!(err.contains("diverged"), "{err}");
    }

    #[test]
    #[should_panic(expected = "simulator invariant violated")]
    fn periodic_enforcement_panics_on_corruption() {
        let trace = Box::new(SequentialStream::new(0x100_0000, 1 << 14, 0x400000, 2));
        let mut sim = Simulation::new(small_cfg());
        sim.add_core("seq", trace, Box::new(NoPrefetcher));
        sim.invariant_period = 1_000; // force checking regardless of env/profile
        // Corrupt: an orphaned dedup-set entry persists (unlike a queued
        // request, which issue_prefetches would pop before the first check).
        sim.cores[0]
            .pq_set
            .insert(PrefetchRequest::new(0x100_0000, FillLevel::L2));
        sim.run(5_000, 30_000);
    }

    #[test]
    #[should_panic(expected = "attach one core per configured core")]
    fn run_requires_all_cores() {
        let mut sim = Simulation::new(SystemConfig::multi_core(2));
        let trace = Box::new(SequentialStream::new(0, 16, 0, 0));
        sim.add_core("only-one", trace, Box::new(NoPrefetcher));
        sim.run(10, 10);
    }

    /// The run always snapshots at the measurement boundary, so the last
    /// snapshot is cumulative over the whole measured region and must agree
    /// with the end-of-run report field for field.
    #[cfg(feature = "observe")]
    #[test]
    fn final_interval_snapshot_matches_core_report() {
        let trace = Box::new(SequentialStream::new(0x100_0000, 1 << 14, 0x400000, 2));
        let mut sim = Simulation::new(small_cfg());
        sim.add_core("seq", trace, Box::new(StreamAhead));
        sim.set_telemetry(TelemetryConfig { interval: 7_000 });
        let report = sim.run(5_000, 40_000);

        let ring = sim.interval_snapshots(0);
        // 40_000 / 7_000 interval boundaries plus the region boundary.
        assert!(ring.len() >= 2, "expected several snapshots, got {}", ring.len());
        let last = ring.last().expect("telemetry on, snapshots recorded");
        let core = &report.cores[0];
        assert_eq!(last.instructions, core.instructions);
        assert_eq!(last.cycles, core.cycles);
        assert_eq!(last.l2, core.l2);
        assert_eq!(last.prefetch, core.prefetch);
        // Sequence numbers count up from zero without gaps.
        for (i, s) in sim.all_interval_snapshots().iter().enumerate() {
            assert_eq!(s.seq, i as u64);
            assert_eq!(s.core, 0);
        }
    }

    #[test]
    fn telemetry_off_records_nothing() {
        let trace = Box::new(SequentialStream::new(0x100_0000, 1 << 14, 0x400000, 2));
        let mut sim = Simulation::new(small_cfg());
        sim.add_core("seq", trace, Box::new(StreamAhead));
        // Explicitly disabled (not from_env) so the test cannot race with a
        // PPF_OBSERVE set in the environment.
        sim.set_telemetry(TelemetryConfig::disabled());
        sim.run(5_000, 40_000);
        assert!(sim.all_interval_snapshots().is_empty());
        assert!(sim.event_trace().is_empty());
    }

    #[test]
    fn profiling_off_records_nothing() {
        use crate::prof::ProfConfig;
        let trace = Box::new(SequentialStream::new(0x100_0000, 1 << 14, 0x400000, 2));
        let mut sim = Simulation::new(small_cfg());
        sim.add_core("seq", trace, Box::new(StreamAhead));
        // Explicitly disabled (not from_env) so the test cannot race with a
        // PPF_OBSERVE set in the environment.
        sim.set_profiling(ProfConfig::disabled());
        sim.run(5_000, 40_000);
        assert!(sim.profile_jsonl().is_empty());
    }

    /// With the feature compiled in and the runtime switch on, a run records
    /// the root span (stride 1, covering the whole run) plus sampled tick
    /// anatomy spans, and the root span accounts for the run's cycles.
    #[cfg(feature = "observe")]
    #[test]
    fn profiled_run_records_root_and_tick_spans() {
        use crate::prof::{ProfConfig, Span};
        let trace = Box::new(SequentialStream::new(0x100_0000, 1 << 14, 0x400000, 2));
        let mut sim = Simulation::new(small_cfg());
        sim.add_core("seq", trace, Box::new(StreamAhead));
        sim.set_profiling(ProfConfig::enabled());
        let report = sim.run(5_000, 40_000);

        let prof = sim.profiler();
        let root = prof.stat(Span::RunLoop);
        assert_eq!(root.calls, 1, "run() records the root span exactly once");
        assert!(root.wall_ns > 0);
        assert!(root.cycles > 0);

        let tick = prof.stat(Span::Tick);
        assert!(tick.calls > 0, "sampled tick spans recorded");
        // Each sampled tick accounts exactly one simulated cycle; the run
        // executed far more cycles than the sample stride covers.
        assert_eq!(tick.calls, tick.cycles);
        assert!(report.cores[0].cycles >= tick.cycles);

        // Sampled nested spans fire on every sampled tick.
        assert!(prof.stat(Span::RetireDispatch).calls > 0);
        assert!(prof.stat(Span::HorizonCompute).calls > 0);

        // The export names every recorded span and carries the envelope.
        let jsonl = sim.profile_jsonl();
        assert!(jsonl.contains("\"span\":0"), "root span exported: {jsonl}");
        let head = crate::observe::envelope("span");
        assert!(jsonl.lines().all(|l| l.starts_with(&head)));
    }
}
