//! Experiment harness regenerating every table and figure of
//! *Perceptron-Based Prefetch Filtering* (ISCA 2019).
//!
//! Each `fig*`/`table*`/`sec*` binary in `src/bin/` drives this library to
//! reproduce one artifact of the paper; `cargo bench` runs the Criterion
//! micro-benchmarks. See DESIGN.md §3 for the full experiment index and
//! EXPERIMENTS.md for recorded paper-vs-measured results.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod hybrid;
pub mod runner;
pub mod sweep;
pub mod telemetry;

use ppf::Ppf;
use ppf_prefetchers::{Bop, DaAmpm, Spp};
use ppf_sim::{NoPrefetcher, Prefetcher, SimReport, Simulation, SystemConfig};
use ppf_trace::{TraceBuilder, Workload, WorkloadMix};

/// The prefetching schemes the paper evaluates (Sec 5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// No prefetching (the normalization baseline).
    Baseline,
    /// Best-Offset Prefetcher.
    Bop,
    /// DRAM-aware AMPM.
    DaAmpm,
    /// Signature Path Prefetcher with its native throttling.
    Spp,
    /// PPF over an unthrottled SPP (the paper's contribution).
    Ppf,
}

impl Scheme {
    /// All schemes in the paper's presentation order.
    pub fn all() -> [Scheme; 5] {
        [Scheme::Baseline, Scheme::Bop, Scheme::DaAmpm, Scheme::Spp, Scheme::Ppf]
    }

    /// The four prefetchers (without the baseline).
    pub fn prefetchers() -> [Scheme; 4] {
        [Scheme::Bop, Scheme::DaAmpm, Scheme::Spp, Scheme::Ppf]
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Baseline => "no-pf",
            Scheme::Bop => "BOP",
            Scheme::DaAmpm => "DA-AMPM",
            Scheme::Spp => "SPP",
            Scheme::Ppf => "PPF",
        }
    }

    /// Builds the scheme's prefetcher instance.
    pub fn build(self) -> Box<dyn Prefetcher> {
        match self {
            Scheme::Baseline => Box::new(NoPrefetcher),
            Scheme::Bop => Box::new(Bop::default()),
            Scheme::DaAmpm => Box::new(DaAmpm::default()),
            Scheme::Spp => Box::new(Spp::default()),
            Scheme::Ppf => Box::new(Ppf::new(Spp::default())),
        }
    }
}

/// Instruction budgets for an experiment, scaled from the paper's SimPoint
/// methodology (200 M warmup / 1 B measured per core) by 1:1000 so the full
/// suite runs in minutes. `quick` shrinks further for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunScale {
    /// Warmup instructions per core.
    pub warmup: u64,
    /// Measured instructions per core.
    pub measure: u64,
    /// Multi-programmed mixes per multi-core experiment.
    pub mixes: usize,
}

impl RunScale {
    /// The default scale (1:1000 of the paper).
    pub fn default_scale() -> Self {
        Self { warmup: 200_000, measure: 1_000_000, mixes: 20 }
    }

    /// A fast scale for smoke runs (`--quick`).
    pub fn quick() -> Self {
        Self { warmup: 50_000, measure: 200_000, mixes: 6 }
    }

    /// Parses `--quick` from argv.
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--quick") {
            Self::quick()
        } else {
            Self::default_scale()
        }
    }
}

/// Runs one single-core cell: `workload`'s seed-42 trace on a `cfg` system
/// with `prefetcher` on its L2. Returns the report and the finished
/// simulation, so the caller can read the prefetcher back with
/// [`Simulation::prefetcher`]. When interval telemetry is active (the
/// `observe` feature + `PPF_OBSERVE=intervals`), the run's snapshots are
/// exported as `<workload>__<label>` JSONL/CSV under the export directory
/// (see [`telemetry::export_simulation`]).
pub fn run_cell(
    cfg: SystemConfig,
    workload: &Workload,
    label: &str,
    prefetcher: Box<dyn Prefetcher>,
    scale: RunScale,
) -> (SimReport, Simulation) {
    let trace = Box::new(TraceBuilder::new(workload.clone()).seed(42).build());
    let mut sim = Simulation::new(cfg);
    sim.add_core(workload.name(), trace, prefetcher);
    let report = sim.run(scale.warmup, scale.measure);
    telemetry::export_simulation(&format!("{}__{label}", workload.name()), &sim);
    (report, sim)
}

/// Runs one workload on a single-core system under `scheme` (a
/// [`run_cell`] labelled with the scheme).
pub fn run_single(cfg: SystemConfig, workload: &Workload, scheme: Scheme, scale: RunScale) -> SimReport {
    run_cell(cfg, workload, scheme.label(), scheme.build(), scale).0
}

/// Runs a multi-programmed mix on an `n`-core system under `scheme`.
pub fn run_mix(mix: &WorkloadMix, scheme: Scheme, scale: RunScale) -> SimReport {
    let mut sim = Simulation::new(SystemConfig::multi_core(mix.cores()));
    for (core, w) in mix.workloads.iter().enumerate() {
        let trace = Box::new(TraceBuilder::new(w.clone()).seed(42 + core as u64).build());
        sim.add_core(w.name(), trace, scheme.build());
    }
    // Multi-core runs use a shorter region per core (the paper reduces the
    // 8-core runs for the same reason); contention still plays out fully.
    let report = sim.run(scale.warmup, scale.measure / 2);
    telemetry::export_simulation(&format!("{}__{}", mix.label(), scheme.label()), &sim);
    report
}

/// IPC of `workload` running alone on a 1-core machine with the same LLC as
/// the `cores`-core mix (the paper's `IPC_isolated`).
pub fn isolated_ipc(workload: &Workload, cores: usize, scale: RunScale) -> f64 {
    let mut cfg = SystemConfig::single_core();
    cfg.llc.size_bytes = 2 * 1024 * 1024 * cores as u64;
    cfg.llc.mshrs = 64 * cores;
    run_single(cfg, workload, Scheme::Baseline, scale).ipc()
}

/// Results of running one workload under every scheme.
#[derive(Debug)]
pub struct SuiteRow {
    /// Workload name.
    pub app: String,
    /// Whether the workload is in the memory-intensive subset.
    pub mem_intensive: bool,
    /// One report per scheme, in [`Scheme::all`] order.
    pub reports: Vec<(Scheme, SimReport)>,
}

impl SuiteRow {
    /// The report for a scheme.
    ///
    /// # Panics
    ///
    /// Panics if the scheme was not run.
    pub fn report(&self, scheme: Scheme) -> &SimReport {
        &self.reports.iter().find(|(s, _)| *s == scheme).expect("scheme was run").1
    }

    /// IPC speedup of a scheme over the baseline.
    pub fn speedup(&self, scheme: Scheme) -> f64 {
        self.report(scheme).ipc() / self.report(Scheme::Baseline).ipc()
    }
}

/// Results of a fault-tolerant suite sweep.
///
/// A workload only yields a [`SuiteRow`] when all of its scheme runs
/// succeeded — partial rows would silently skew cross-scheme comparisons,
/// so they are dropped (and named in `dropped`) instead.
#[derive(Debug)]
pub struct SuiteOutcome {
    /// Complete rows (every scheme succeeded), in workload order.
    pub rows: Vec<SuiteRow>,
    /// Workloads dropped because at least one scheme run failed.
    pub dropped: Vec<String>,
    /// Every failed job, in grid order.
    pub failures: Vec<runner::JobError>,
    /// Jobs restored from checkpoint records instead of re-run.
    pub resumed: usize,
}

/// Runs every workload under every scheme on `make_cfg()`-configured
/// single-core systems, reporting progress and a sweep summary on stderr.
///
/// The (workload × scheme) grid goes through a checkpointed
/// [`sweep::Sweep`] built from argv/env (`--threads`, `--job-timeout`,
/// `--resume`, `PPF_*`): each job runs panic-isolated, successes are
/// checkpointed under `experiment`, and a rerun with `--resume` skips
/// completed jobs bit-exactly. Results are identical to a sequential run
/// (every simulation is independent and results are collected by grid
/// index).
pub fn run_suite<F: Fn() -> SystemConfig>(
    experiment: &str,
    workloads: &[Workload],
    make_cfg: F,
    scale: RunScale,
) -> SuiteOutcome {
    run_suite_with(&sweep::Sweep::from_args(experiment), workloads, make_cfg, scale)
}

/// [`run_suite`] over an explicitly-configured [`sweep::Sweep`] (tests,
/// embedding).
pub fn run_suite_with<F: Fn() -> SystemConfig>(
    sweep: &sweep::Sweep,
    workloads: &[Workload],
    make_cfg: F,
    scale: RunScale,
) -> SuiteOutcome {
    let jobs: Vec<(String, runner::BoxedJob<SimReport>)> = workloads
        .iter()
        .flat_map(|w| Scheme::all().into_iter().map(move |s| (w, s)))
        .map(|(w, s)| {
            let key = format!("{}/{}", w.name(), s.label());
            let w = w.clone();
            let cfg = make_cfg();
            let job: runner::BoxedJob<SimReport> = Box::new(move || {
                let t0 = std::time::Instant::now();
                let r = run_single(cfg, &w, s, scale);
                eprintln!(
                    "  {} / {}: ipc {:.3} ({} ms)",
                    w.name(),
                    s.label(),
                    r.ipc(),
                    t0.elapsed().as_millis()
                );
                r
            });
            (key, job)
        })
        .collect();
    let out = sweep.run(jobs);
    out.report();
    let resumed = out.resumed;

    let mut grid = out.results.into_iter();
    let mut rows = Vec::new();
    let mut dropped = Vec::new();
    let mut failures = Vec::new();
    for w in workloads {
        let mut reports = Vec::new();
        let mut complete = true;
        for s in Scheme::all() {
            match grid.next().expect("one outcome per grid cell").1 {
                Ok(report) => reports.push((s, report)),
                Err(e) => {
                    complete = false;
                    failures.push(e);
                }
            }
        }
        if complete {
            rows.push(SuiteRow {
                app: w.name().to_string(),
                mem_intensive: w.is_memory_intensive(),
                reports,
            });
        } else {
            eprintln!("[sweep] dropped {}: incomplete results", w.name());
            dropped.push(w.name().to_string());
        }
    }
    SuiteOutcome { rows, dropped, failures, resumed }
}

/// Weighted speedups of one multi-programmed mix under every prefetcher.
#[derive(Debug)]
pub struct MixRun {
    /// The mix's display label.
    pub label: String,
    /// Weighted speedup over the no-prefetch baseline per scheme, in
    /// [`Scheme::prefetchers`] order.
    pub speedups: Vec<(Scheme, f64)>,
}

/// Results of a fault-tolerant multi-core mix sweep.
///
/// A mix only yields a [`MixRun`] when its isolated-IPC jobs and all of
/// its scheme runs succeeded; otherwise it is dropped (and named in
/// `dropped`).
#[derive(Debug)]
pub struct MixSuiteOutcome {
    /// Completed mixes, in input order.
    pub runs: Vec<MixRun>,
    /// Mix labels dropped because a contributing job failed.
    pub dropped: Vec<String>,
    /// Every failed job (isolated and grid), in job order.
    pub failures: Vec<runner::JobError>,
    /// Jobs restored from checkpoint records instead of re-run.
    pub resumed: usize,
}

/// Runs every mix under every scheme (plus the baseline) on `cores`-core
/// systems and computes weighted speedups against per-workload isolated
/// IPCs.
///
/// Both job grids (isolated IPCs, then mix × scheme) go through one
/// checkpointed [`sweep::Sweep`] built from argv/env — see [`run_suite`]
/// for the resume/fault-isolation semantics. Mix results come back in
/// input order.
pub fn run_mix_suite(
    experiment: &str,
    mixes: &[WorkloadMix],
    cores: usize,
    scale: RunScale,
) -> MixSuiteOutcome {
    run_mix_suite_with(&sweep::Sweep::from_args(experiment), mixes, cores, scale)
}

/// [`run_mix_suite`] over an explicitly-configured [`sweep::Sweep`].
pub fn run_mix_suite_with(
    sweep: &sweep::Sweep,
    mixes: &[WorkloadMix],
    cores: usize,
    scale: RunScale,
) -> MixSuiteOutcome {
    // Isolated IPCs are shared across mixes; compute each unique workload
    // once, in parallel, in first-appearance order.
    let mut unique: Vec<&Workload> = Vec::new();
    for mix in mixes {
        for w in &mix.workloads {
            if !unique.iter().any(|u| u.name() == w.name()) {
                unique.push(w);
            }
        }
    }
    let iso_jobs: Vec<(String, runner::BoxedJob<f64>)> = unique
        .iter()
        .map(|w| {
            let key = format!("isolated/{}", w.name());
            let w = (*w).clone();
            let job: runner::BoxedJob<f64> = Box::new(move || {
                let ipc = isolated_ipc(&w, cores, scale);
                eprintln!("  isolated {}: ipc {:.3}", w.name(), ipc);
                ipc
            });
            (key, job)
        })
        .collect();
    let iso_out = sweep.run(iso_jobs);
    let iso_ok = iso_out.ok_count();
    let mut resumed = iso_out.resumed;

    let mut failures: Vec<runner::JobError> = Vec::new();
    let mut isolated: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
    for (w, (_key, outcome)) in unique.iter().zip(iso_out.results) {
        match outcome {
            Ok(ipc) => {
                isolated.insert(w.name().to_string(), ipc);
            }
            Err(e) => failures.push(e),
        }
    }

    // The (mix × scheme) grid, baseline included.
    let schemes = Scheme::all();
    let jobs: Vec<(String, runner::BoxedJob<Vec<f64>>)> = mixes
        .iter()
        .flat_map(|mix| schemes.into_iter().map(move |s| (mix, s)))
        .map(|(mix, s)| {
            let key = format!("{}/{}", mix.label(), s.label());
            let mix = mix.clone();
            let job: runner::BoxedJob<Vec<f64>> = Box::new(move || {
                let r = run_mix(&mix, s, scale);
                eprintln!("  {} / {}: done", mix.label(), s.label());
                r.cores.iter().map(|c| c.ipc()).collect::<Vec<f64>>()
            });
            (key, job)
        })
        .collect();
    let grid_out = sweep.run(jobs);
    let grid_ok = grid_out.ok_count();
    resumed += grid_out.resumed;

    let mut runs = Vec::new();
    let mut dropped = Vec::new();
    let mut grid = grid_out.results.into_iter();
    for mix in mixes {
        let mut per_scheme: Vec<(Scheme, Vec<f64>)> = Vec::new();
        let mut complete = true;
        for s in schemes {
            match grid.next().expect("one outcome per grid cell").1 {
                Ok(ipcs) => per_scheme.push((s, ipcs)),
                Err(e) => {
                    complete = false;
                    failures.push(e);
                }
            }
        }
        let iso: Option<Vec<f64>> =
            mix.workloads.iter().map(|w| isolated.get(w.name()).copied()).collect();
        let (true, Some(iso)) = (complete, iso) else {
            dropped.push(mix.label());
            continue;
        };
        let base_ipc =
            &per_scheme.iter().find(|(s, _)| *s == Scheme::Baseline).expect("baseline").1;
        let speedups = Scheme::prefetchers()
            .into_iter()
            .map(|s| {
                let ipcs = &per_scheme.iter().find(|(x, _)| *x == s).expect("scheme").1;
                (s, ppf_analysis::weighted_speedup(ipcs, base_ipc, &iso))
            })
            .collect();
        runs.push(MixRun { label: mix.label(), speedups });
    }

    eprintln!(
        "[sweep] {}: {} ok, {} failed, {} resumed",
        sweep.experiment(),
        iso_ok + grid_ok,
        failures.len(),
        resumed
    );
    for e in &failures {
        eprintln!("[sweep] FAILED {e}");
    }
    for d in &dropped {
        eprintln!("[sweep] dropped {d}: incomplete results");
    }

    MixSuiteOutcome { runs, dropped, failures, resumed }
}

/// Runs one labelled grid of scalar jobs through `sweep`, reports the
/// summary on stderr, and returns each job's value in input order (`None`
/// for failed jobs) — the shared driver for the ablation binaries, whose
/// grids produce per-workload speedup ratios rather than full reports.
pub fn sweep_scalars(
    sweep: &sweep::Sweep,
    jobs: Vec<(String, runner::BoxedJob<f64>)>,
) -> Vec<Option<f64>> {
    let out = sweep.run(jobs);
    out.report();
    out.into_outcomes().into_iter().map(Result::ok).collect()
}

/// Coverage of a prefetching run versus a baseline run at one cache level:
/// the fraction of baseline misses the prefetcher eliminated (paper Fig. 10).
pub fn coverage(baseline_misses: u64, with_pf_misses: u64) -> f64 {
    if baseline_misses == 0 {
        return 0.0;
    }
    1.0 - (with_pf_misses.min(baseline_misses) as f64 / baseline_misses as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppf_trace::{MixGenerator, Suite};

    fn tiny() -> RunScale {
        RunScale { warmup: 5_000, measure: 30_000, mixes: 2 }
    }

    #[test]
    fn schemes_build() {
        for s in Scheme::all() {
            let _ = s.build();
            assert!(!s.label().is_empty());
        }
    }

    #[test]
    fn single_run_produces_report() {
        let w = Workload::by_name("638.imagick_s").unwrap();
        let r = run_single(SystemConfig::single_core(), &w, Scheme::Spp, tiny());
        assert!(r.ipc() > 0.0);
    }

    #[test]
    fn mix_run_produces_report() {
        let pool = Workload::memory_intensive(Suite::Spec2017);
        let mixes = MixGenerator::new(pool, 7).draw(1, 2);
        let r = run_mix(&mixes[0], Scheme::Baseline, tiny());
        assert_eq!(r.cores.len(), 2);
    }

    #[test]
    fn instrumented_ppf_exposes_state() {
        let w = Workload::by_name("603.bwaves_s").unwrap();
        let cfg = ppf::PpfConfig { event_log_capacity: 1024, ..ppf::PpfConfig::default() };
        let pf = Box::new(Ppf::with_config(Spp::default(), cfg));
        let (r, sim) = run_cell(SystemConfig::single_core(), &w, "PPF", pf, tiny());
        assert!(r.ipc() > 0.0);
        let ppf = sim.prefetcher::<Ppf<Spp>>(0).expect("core 0 runs PPF over SPP");
        assert!(ppf.filter().stats.inferences > 0, "PPF saw no candidates");
        assert!(!ppf.filter().training_events().is_empty(), "event log stayed empty");
    }

    #[test]
    fn coverage_math() {
        assert!((coverage(1000, 200) - 0.8).abs() < 1e-12);
        assert_eq!(coverage(0, 5), 0.0);
        // More misses than baseline clamps to zero coverage.
        assert_eq!(coverage(100, 150), 0.0);
    }

    #[test]
    fn quick_scale_smaller() {
        assert!(RunScale::quick().measure < RunScale::default_scale().measure);
    }
}
