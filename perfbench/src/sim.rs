//! The simulator workloads: `fig09-1c` and `mix4-ppf`.
//!
//! A workload is a fixed list of simulation cells. A phase runs the list
//! over and over on one thread until its budget is spent, completing at
//! least one pass. Throughput weighs each cell by the mean of its
//! repetitions, so a pass the budget cuts short does not tilt the mix of
//! cells. Every repetition does identical work, yet on a shared 2-vCPU KVM
//! host (Xeon, model 207) the same cell mostly ran 1.4-1.9x slower than
//! its fastest run, the factor drifting every few seconds on each vCPU
//! independently, with rare fast stretches of 10-20 s, while an ALU loop
//! slowed by 5% at most: neighbours contend for the memory hierarchy. A
//! second simulation thread on the other vCPU slowed both. So every cell
//! is preceded by a [`HostProbe`], and the reported times are scaled by
//! the run's mean probe time to a reference host speed; the human table
//! also prints the raw figure. The probe's 8-MB table counts in
//! `peak_rss_mb`.

use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::{Duration, Instant};

use ppf::Ppf;
use ppf_prefetchers::{Bop, Candidate, DaAmpm, Feedback, LookaheadSource, Spp};
use ppf_sim::{
    AccessContext, CycleStats, EvictionInfo, FillLevel, FilterCounters, NoPrefetcher,
    PrefetchRequest, Prefetcher, ProfConfig, SimReport, Simulation, SystemConfig, TelemetryConfig,
};
use ppf_trace::{AccessPattern, MixGenerator, Suite, TraceBuilder, TraceRecord};

use crate::report::{fnv1a, median, metric, peak_rss_mb, quantile, Layers, Outcome};

#[derive(Debug, Clone, Copy)]
pub enum Workload {
    /// The paper's Fig. 9 grid: 20 SPEC CPU2017 models under five schemes,
    /// single core, 1:1000 scale.
    Fig09,
    /// 4-core memory-intensive mixes with `Ppf<Spp>` on every core.
    Mix4,
}

/// Mixes per `mix4-ppf` pass: the first ones fig11 draws (generator seed
/// 1), so the default seed reproduces fig11's PPF cells. The mix list is
/// fixed; `--seed` moves the trace seeds only, so run-to-run spread
/// measures the host, not a different set of programs.
const MIX4_MIXES: usize = 4;
const MIX_GENERATOR_SEED: u64 = 1;

/// Workload digest at the default seed: FNV-1a over every cell's digest of
/// its `SimReport`, per-core filter counters and cycle stats.
const FIG09_DIGEST: u64 = 0x3b09_3fd7_62ea_5f4f;
const MIX4_DIGEST: u64 = 0x2bb4_511b_c5a0_c458;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scheme {
    Nopf,
    Bop,
    DaAmpm,
    Spp,
    Ppf,
}

const SCHEMES: [Scheme; 5] = [
    Scheme::Nopf,
    Scheme::Bop,
    Scheme::DaAmpm,
    Scheme::Spp,
    Scheme::Ppf,
];

/// One simulation cell.
struct Job {
    cores: Vec<(ppf_trace::Workload, u64)>,
    scheme: Scheme,
    warmup: u64,
    measure: u64,
}

impl Job {
    /// Nominal simulated instructions, warm-up included, over all cores.
    fn instructions(&self) -> u64 {
        self.cores.len() as u64 * (self.warmup + self.measure)
    }
}

fn jobs(workload: Workload, seed: u64) -> Vec<Job> {
    match workload {
        Workload::Fig09 => ppf_trace::Workload::spec2017()
            .into_iter()
            .flat_map(|model| {
                SCHEMES.map(|scheme| Job {
                    cores: vec![(model.clone(), seed)],
                    scheme,
                    warmup: 200_000,
                    measure: 1_000_000,
                })
            })
            .collect(),
        // Multi-core cells measure half the region per core, as fig11 does.
        Workload::Mix4 => MixGenerator::new(
            ppf_trace::Workload::memory_intensive(Suite::Spec2017),
            MIX_GENERATOR_SEED,
        )
        .draw(MIX4_MIXES, 4)
        .into_iter()
        .map(|mix| Job {
            cores: mix
                .workloads
                .into_iter()
                .zip((0..).map(|core| seed.wrapping_add(core)))
                .collect(),
            scheme: Scheme::Ppf,
            warmup: 200_000,
            measure: 500_000,
        })
        .collect(),
    }
}

/// Layer clocks and counts for one traced simulation.
#[derive(Debug, Default)]
struct Probe {
    trace_ns: Cell<u64>,
    records: Cell<u64>,
    /// `on_demand_access` of the core's prefetcher (SPP time included).
    pf_ns: Cell<u64>,
    /// The four feedback hooks.
    feedback_ns: Cell<u64>,
    spp_ns: Cell<u64>,
    spp_calls: Cell<u64>,
    spp_cands: Cell<u64>,
    /// Each core's filter counters, written when its prefetcher drops.
    counters: RefCell<Vec<FilterCounters>>,
}

fn add(c: &Cell<u64>, v: u64) {
    c.set(c.get() + v);
}

fn since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Times each trace record a core pulls.
struct TimedTrace<P> {
    inner: P,
    probe: Rc<Probe>,
}

impl<P: AccessPattern> AccessPattern for TimedTrace<P> {
    fn next_record(&mut self) -> TraceRecord {
        let t0 = Instant::now();
        let rec = self.inner.next_record();
        add(&self.probe.trace_ns, since(t0));
        add(&self.probe.records, 1);
        rec
    }
}

/// Times the SPP that `Ppf` drives.
struct TimedSource<S> {
    inner: S,
    probe: Rc<Probe>,
}

impl<S: LookaheadSource> LookaheadSource for TimedSource<S> {
    fn candidates(&mut self, ctx: &AccessContext, out: &mut Vec<Candidate>) {
        let before = out.len();
        let t0 = Instant::now();
        self.inner.candidates(ctx, out);
        add(&self.probe.spp_ns, since(t0));
        add(&self.probe.spp_calls, 1);
        add(&self.probe.spp_cands, (out.len() - before) as u64);
    }

    fn on_useful_prefetch(&mut self, fb: Feedback) {
        self.inner.on_useful_prefetch(fb)
    }

    fn on_prefetch_fill(&mut self, fb: Feedback) {
        self.inner.on_prefetch_fill(fb)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Forwards every hook to the core's prefetcher and hands its filter
/// counters to the probe when the simulation drops it. With `TIMED` it
/// also times the hooks; without, the timing code compiles away.
struct Tap<P: Prefetcher, const TIMED: bool> {
    inner: P,
    probe: Rc<Probe>,
}

impl<P: Prefetcher, const TIMED: bool> Tap<P, TIMED> {
    #[inline(always)]
    fn timed<R>(&mut self, clock: fn(&Probe) -> &Cell<u64>, f: impl FnOnce(&mut P) -> R) -> R {
        if TIMED {
            let t0 = Instant::now();
            let r = f(&mut self.inner);
            add(clock(&self.probe), since(t0));
            r
        } else {
            f(&mut self.inner)
        }
    }
}

impl<P: Prefetcher, const TIMED: bool> Prefetcher for Tap<P, TIMED> {
    fn on_demand_access(&mut self, ctx: &AccessContext, out: &mut Vec<PrefetchRequest>) {
        self.timed(|p| &p.pf_ns, |p| p.on_demand_access(ctx, out))
    }

    fn on_useful_prefetch(&mut self, addr: u64) {
        self.timed(|p| &p.feedback_ns, |p| p.on_useful_prefetch(addr))
    }

    fn on_eviction(&mut self, info: &EvictionInfo) {
        self.timed(|p| &p.feedback_ns, |p| p.on_eviction(info))
    }

    fn on_llc_eviction(&mut self, info: &EvictionInfo) {
        self.timed(|p| &p.feedback_ns, |p| p.on_llc_eviction(info))
    }

    fn on_prefetch_fill(&mut self, addr: u64, level: FillLevel) {
        self.timed(|p| &p.feedback_ns, |p| p.on_prefetch_fill(addr, level))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn filter_counters(&self) -> FilterCounters {
        self.inner.filter_counters()
    }

    fn telemetry_dump(&self) -> String {
        self.inner.telemetry_dump()
    }
}

impl<P: Prefetcher, const TIMED: bool> Drop for Tap<P, TIMED> {
    fn drop(&mut self) {
        self.probe
            .counters
            .borrow_mut()
            .push(self.inner.filter_counters());
    }
}

fn tap<P: Prefetcher + 'static, const TIMED: bool>(
    inner: P,
    probe: &Rc<Probe>,
) -> Box<dyn Prefetcher> {
    Box::new(Tap::<P, TIMED> {
        inner,
        probe: Rc::clone(probe),
    })
}

fn prefetcher<const TIMED: bool>(scheme: Scheme, probe: &Rc<Probe>) -> Box<dyn Prefetcher> {
    match scheme {
        Scheme::Nopf => tap::<_, TIMED>(NoPrefetcher, probe),
        Scheme::Bop => tap::<_, TIMED>(Bop::default(), probe),
        Scheme::DaAmpm => tap::<_, TIMED>(DaAmpm::default(), probe),
        Scheme::Spp => tap::<_, TIMED>(Spp::default(), probe),
        Scheme::Ppf if TIMED => tap::<_, TIMED>(
            Ppf::new(TimedSource {
                inner: Spp::default(),
                probe: Rc::clone(probe),
            }),
            probe,
        ),
        Scheme::Ppf => tap::<_, TIMED>(Ppf::new(Spp::default()), probe),
    }
}

/// Builds a cell's simulation: its traces, `Simulation::new` and
/// `add_core`, with every path switch pinned.
fn build(job: &Job, traced: bool) -> (Simulation, Rc<Probe>) {
    let probe = Rc::new(Probe::default());
    let mut sim = Simulation::new(SystemConfig::multi_core(job.cores.len()));
    sim.set_cycle_skip(true);
    sim.set_telemetry(TelemetryConfig::disabled());
    sim.set_profiling(ProfConfig::disabled());
    for (model, seed) in &job.cores {
        let gen = TraceBuilder::new(model.clone()).seed(*seed).build();
        let trace: Box<dyn AccessPattern> = if traced {
            Box::new(TimedTrace {
                inner: gen,
                probe: Rc::clone(&probe),
            })
        } else {
            Box::new(gen)
        };
        let prefetcher = if traced {
            prefetcher::<true>(job.scheme, &probe)
        } else {
            prefetcher::<false>(job.scheme, &probe)
        };
        sim.add_core(model.name(), trace, prefetcher);
    }
    (sim, probe)
}

/// One execution of one cell.
#[derive(Debug, Default, Clone)]
struct Exec {
    /// Host time of building the traces, `Simulation::new` and `add_core`.
    build_ns: u64,
    /// Host time of `Simulation::run`.
    run_ns: u64,
    /// Host time of the `HostProbe` run just before.
    probe_ns: u64,
    /// `None` when the simulation panicked.
    digest: Option<u64>,
    cycles: CycleStats,
    counters: Vec<FilterCounters>,
    issued: u64,
    useful: u64,
    trace_ns: u64,
    records: u64,
    pf_ns: u64,
    feedback_ns: u64,
    spp_ns: u64,
    spp_calls: u64,
    spp_cands: u64,
}

fn digest(report: &SimReport, counters: &[FilterCounters], cycles: &CycleStats) -> u64 {
    fnv1a(format!("{report:?}|{counters:?}|{cycles:?}").as_bytes())
}

fn execute(job: &Job, traced: bool) -> Exec {
    let t0 = Instant::now();
    let (mut sim, probe) = build(job, traced);
    let build_ns = since(t0);
    let t0 = Instant::now();
    let report = catch_unwind(AssertUnwindSafe(|| sim.run(job.warmup, job.measure)));
    let run_ns = since(t0);
    let cycles = sim.cycle_stats();
    drop(sim);
    let counters = probe.counters.take();
    let mut exec = Exec {
        build_ns,
        run_ns,
        cycles,
        trace_ns: probe.trace_ns.get(),
        records: probe.records.get(),
        pf_ns: probe.pf_ns.get(),
        feedback_ns: probe.feedback_ns.get(),
        spp_ns: probe.spp_ns.get(),
        spp_calls: probe.spp_calls.get(),
        spp_cands: probe.spp_cands.get(),
        ..Exec::default()
    };
    if let Ok(report) = report {
        exec.digest = Some(digest(&report, &counters, &cycles));
        exec.issued = report.cores.iter().map(|c| c.prefetch.issued).sum();
        exec.useful = report.cores.iter().map(|c| c.prefetch.useful_total()).sum();
    }
    exec.counters = counters;
    exec
}

/// Reads per host probe, and the probe's time on the reference host (its
/// median there, 5.5 ns per read).
const PROBE_READS: u64 = 500_000;
const REFERENCE_PROBE_NS: f64 = 2_750_000.0;

/// A fixed memory-bound loop, timed before every cell, that gauges how
/// much the host is slowing memory access at that moment: independent
/// random reads over 8 MB, past the host's L2, as the simulator's tables
/// are. It is the benchmark's own code, so changes to the program do not
/// move it. Per cell its time tracks the cell's poorly, but per run it
/// tracks well: over ten 50-s runs the raw throughput spread 18%
/// (quartile distance over median) and the probe-scaled one 6%.
struct HostProbe {
    table: Vec<u64>,
}

impl HostProbe {
    fn new() -> Self {
        Self {
            table: (0..1 << 20).collect(),
        }
    }

    fn time_ns(&self) -> u64 {
        let mask = self.table.len() as u64 - 1;
        let (mut h, mut acc) = (12345u64, 0u64);
        let t0 = Instant::now();
        for _ in 0..PROBE_READS {
            h = h
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            acc = acc.wrapping_add(self.table[((h >> 20) & mask) as usize]);
        }
        std::hint::black_box(acc);
        since(t0)
    }
}

/// Runs passes over `jobs` until `budget` is spent, completing at least
/// one pass; returns each cell's executions.
fn phase(jobs: &[Job], budget: Duration, traced: bool) -> Vec<Vec<Exec>> {
    let probe = HostProbe::new();
    let start = Instant::now();
    let mut execs: Vec<Vec<Exec>> = jobs.iter().map(|_| Vec::new()).collect();
    let mut i = 0;
    while i < jobs.len() || start.elapsed() < budget {
        let j = i % jobs.len();
        let probe_ns = probe.time_ns();
        execs[j].push(Exec {
            probe_ns,
            ..execute(&jobs[j], traced)
        });
        i += 1;
    }
    execs
}

/// How much slower than the reference host the probe ran over a phase.
fn host_slowdown(execs: &[Vec<Exec>]) -> f64 {
    let probes: Vec<u64> = execs.iter().flatten().map(|x| x.probe_ns).collect();
    probes.iter().sum::<u64>() as f64 / probes.len() as f64 / REFERENCE_PROBE_NS
}

/// Median of `f` over each cell's executions.
fn cell_medians(execs: &[Vec<Exec>], f: fn(&Exec) -> u64) -> Vec<f64> {
    execs
        .iter()
        .map(|e| median(&mut e.iter().map(|x| f(x) as f64).collect::<Vec<_>>()))
        .collect()
}

/// Mean host seconds of each cell's runs at reference host speed. The
/// mean averages over every slow stretch a run holds, where a median or
/// minimum leans on whichever ones a run happened to catch.
fn cell_seconds(execs: &[Vec<Exec>]) -> Vec<f64> {
    let slowdown = host_slowdown(execs);
    execs
        .iter()
        .map(|e| {
            e.iter().map(|x| x.run_ns as f64).sum::<f64>() / e.len() as f64 / 1e9 / slowdown
        })
        .collect()
}

/// Set-up time of one pass: each cell's traces, `Simulation::new` and
/// `add_core`, at the cell's median over its repetitions.
fn build_seconds(execs: &[Vec<Exec>]) -> f64 {
    cell_medians(execs, |x| x.build_ns).iter().sum::<f64>() / 1e9
}

/// Simulated instructions per host second over the cells `keep` selects,
/// each at its time from `cell_seconds`.
fn minstr_per_s(jobs: &[Job], secs: &[f64], keep: impl Fn(&Job) -> bool) -> f64 {
    let (mut instr, mut time) = (0u64, 0.0);
    for (job, s) in jobs.iter().zip(secs) {
        if keep(job) {
            instr += job.instructions();
            time += s;
        }
    }
    instr as f64 / time / 1e6
}

pub fn run(workload: Workload, seed: u64, budget: Duration, trace: bool) -> Outcome {
    let jobs = jobs(workload, seed);

    let untraced = phase(&jobs, if trace { budget / 2 } else { budget }, false);
    let traced = if trace {
        phase(&jobs, budget / 2, true)
    } else {
        Vec::new()
    };

    // Output check: every execution of a cell must match the cell's first
    // untraced execution (so repeated and traced runs agree), and at the
    // default seed the workload digest must match the recorded one.
    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let reference: Vec<Option<u64>> = untraced.iter().map(|e| e[0].digest).collect();
    for (j, e) in untraced.iter().chain(traced.iter()).enumerate() {
        let want = reference[j % jobs.len()];
        for x in e {
            outcome.attempted += 1;
            if x.digest.is_none() || x.digest != want {
                outcome.failed += 1;
            }
        }
    }
    let workload_digest = fnv1a(
        &reference
            .iter()
            .flat_map(|d| d.unwrap_or(0).to_le_bytes())
            .collect::<Vec<u8>>(),
    );
    let recorded = match workload {
        Workload::Fig09 => FIG09_DIGEST,
        Workload::Mix4 => MIX4_DIGEST,
    };
    outcome.notes.push(format!(
        "workload digest {workload_digest:#018x} (seed {seed})"
    ));
    if seed == crate::DEFAULT_SEED && workload_digest != recorded {
        outcome.notes.push(format!(
            "MISMATCH: recorded digest at the default seed is {recorded:#018x}"
        ));
        outcome.failed = outcome.attempted;
    }
    outcome.correct = outcome.failed == 0;

    // Every time below is scaled to reference host speed by the probe.
    let slowdown = host_slowdown(&untraced);
    let secs = cell_seconds(&untraced);
    // Latency samples are every execution, not one per cell: a quantile
    // over 100 per-cell times falls between two cells and carries all
    // their noise.
    let mut exec_us: Vec<f64> = untraced
        .iter()
        .flatten()
        .map(|x| x.run_ns as f64 / 1e3 / slowdown)
        .collect();
    let throughput = minstr_per_s(&jobs, &secs, |_| true);
    let passes = untraced.iter().map(Vec::len).min().unwrap_or(0);
    outcome.notes.push(format!(
        "sim_minstr_per_s {throughput:.4} Minstr/s at reference host speed, {:.4} as measured \
         (host slowdown {slowdown:.4}), over {} cells x >= {passes} passes",
        throughput * slowdown,
        jobs.len()
    ));
    outcome.notes.push(format!(
        "cell latency samples: {} executions of {} cells",
        exec_us.len(),
        jobs.len()
    ));
    outcome.end_to_end = vec![
        // A cell runs on one thread that never waits, so its host time is
        // the CPU time spent on it.
        metric("ops_per_cpu_s", throughput * 1e6, "1/s"),
        metric("op_p50_us", quantile(&mut exec_us, 0.5), "us"),
        metric("op_p90_us", quantile(&mut exec_us, 0.9), "us"),
        metric("setup_s", build_seconds(&untraced), "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    if trace {
        outcome.layer = layer_metrics(&jobs, &untraced, &traced, &mut outcome.notes).metrics();
        if outcome.notes.iter().any(|n| n.starts_with("LAYER")) {
            outcome.correct = false;
        }
    }
    outcome
}

fn layer_metrics(
    jobs: &[Job],
    untraced: &[Vec<Exec>],
    traced: &[Vec<Exec>],
    notes: &mut Vec<String>,
) -> Layers {
    if let Some(x) = traced
        .iter()
        .flatten()
        .find(|x| x.trace_ns + x.pf_ns + x.feedback_ns > x.run_ns || x.spp_ns > x.pf_ns)
    {
        notes.push(format!(
            "LAYER TIME EXCEEDS WALL: trace {} + prefetcher {} (SPP {}) + feedback {} ns against {} ns",
            x.trace_ns, x.pf_ns, x.spp_ns, x.feedback_ns, x.run_ns
        ));
    }
    // Each cell's median traced execution by host time; its counts are
    // that cell's counts for one pass.
    let mid: Vec<&Exec> = traced
        .iter()
        .map(|e| {
            let mut by_time: Vec<&Exec> = e.iter().collect();
            by_time.sort_by_key(|x| x.run_ns);
            by_time[by_time.len() / 2]
        })
        .collect();
    let sum = |ppf_only: bool, f: &dyn Fn(&Job, &Exec) -> u64| -> f64 {
        jobs.iter()
            .zip(&mid)
            .filter(|(j, _)| !ppf_only || j.scheme == Scheme::Ppf)
            .map(|(j, x)| f(j, x))
            .sum::<u64>() as f64
    };
    let self_ns = sum(false, &|_, x| {
        x.run_ns
            .saturating_sub(x.trace_ns + x.pf_ns + x.feedback_ns)
    });
    let counter = |f: fn(&FilterCounters) -> u64| sum(true, &|_, x| x.counters.iter().map(f).sum());
    let inferences = counter(|c| c.inferences);
    let spp_calls = sum(true, &|_, x| x.spp_calls);
    let secs = cell_seconds(untraced);
    let scheme_rate = |s: Scheme| {
        if jobs.iter().any(|j| j.scheme == s) {
            minstr_per_s(jobs, &secs, |j| j.scheme == s)
        } else {
            0.0
        }
    };
    Layers {
        trace_ns_per_record: sum(false, &|_, x| x.trace_ns) / sum(false, &|_, x| x.records),
        trace_records: sum(false, &|_, x| x.records),
        sim_self_ns_per_instr: self_ns / sum(false, &|j, _| j.instructions()),
        sim_ticks: sum(false, &|_, x| x.cycles.ticks),
        sim_skip_ratio: sum(false, &|_, x| x.cycles.skipped_cycles)
            / sum(false, &|_, x| x.cycles.total_cycles),
        sim_ns_per_tick: self_ns / sum(false, &|_, x| x.cycles.ticks),
        scheme_minstr_per_s: SCHEMES.map(scheme_rate),
        spp_ns_per_call: sum(true, &|_, x| x.spp_ns) / spp_calls,
        spp_cands_per_call: sum(true, &|_, x| x.spp_cands) / spp_calls,
        ppf_ns_per_cand: sum(true, &|_, x| x.pf_ns.saturating_sub(x.spp_ns)) / inferences,
        ppf_feedback_ns_per_kinstr: sum(true, &|_, x| x.feedback_ns)
            / (sum(true, &|j, _| j.instructions()) / 1000.0),
        ppf_accept_ratio: counter(|c| c.accepted_l2 + c.accepted_llc) / inferences,
        pf_accuracy: sum(true, &|_, x| x.useful) / sum(true, &|_, x| x.issued),
        trace_overhead: cell_seconds(traced).iter().sum::<f64>() / secs.iter().sum::<f64>() - 1.0,
        ..Layers::default()
    }
}
