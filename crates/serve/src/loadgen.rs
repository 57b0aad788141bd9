//! Load generation and the chaos drill.
//!
//! The load generator replays multi-tenant `ppf-trace` streams
//! ([`ppf_trace::MultiTenantReplay`]) against a daemon, paced by a
//! [`ppf_trace::RatePlan`] (so a "10x load spike" is part of the schedule,
//! not an accident of wall-clock jitter), and measures caller-observed
//! latency. The **chaos drill** ([`run_drill`]) is the acceptance harness:
//! it boots an in-process fleet with injected faults, drives it through a
//! spike, then restarts from checkpoints and checks the warm start —
//! reporting p50/p99 latency alongside shed/degraded/restart rates.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ppf::FeatureInputs;
use ppf_bench::fault::FaultSpec;
use ppf_bench::runner::lock_unpoisoned;
use ppf_sim::observe::envelope;
use ppf_trace::{MultiTenantReplay, RatePlan, Suite, TraceRecord};

use crate::daemon::{Daemon, ServeConfig};
use crate::protocol::{Candidate, ScoreRequest};

/// Per-tenant feature derivation from a raw trace stream.
///
/// The daemon scores [`FeatureInputs`], but a trace is just (pc, addr)
/// pairs — this mirrors the lightweight SPP-style front end: rolling
/// delta signature, last-3 PC history, and a confidence that decays with
/// signature churn. Deterministic, so replays are reproducible.
#[derive(Debug, Default, Clone)]
pub struct FeatureTracker {
    last_block: u64,
    pcs: [u64; 3],
    signature: u16,
    stable: u8,
}

impl FeatureTracker {
    /// Folds one record into the tracker and emits the candidate to score.
    pub fn observe(&mut self, rec: &TraceRecord) -> Candidate {
        let block = rec.addr >> 6;
        let raw = block as i64 - self.last_block as i64;
        let delta = raw.clamp(i64::from(i16::MIN), i64::from(i16::MAX)) as i16;
        let last_signature = self.signature;
        self.signature = ((self.signature << 3) ^ (delta as u16 & 0x3F)) & 0x3FF;
        self.stable = if self.signature == last_signature {
            self.stable.saturating_add(8)
        } else {
            self.stable / 2
        };
        let inputs = FeatureInputs {
            trigger_addr: rec.addr,
            trigger_pc: rec.pc,
            pc_1: self.pcs[0],
            pc_2: self.pcs[1],
            pc_3: self.pcs[2],
            signature: self.signature,
            last_signature,
            confidence: self.stable,
            delta,
            depth: (delta.unsigned_abs() % 4) as u8,
            source: 0,
        };
        self.pcs = [rec.pc, self.pcs[0], self.pcs[1]];
        self.last_block = block;
        // Next-line-ish target in the delta's direction: close enough to
        // real lookahead for serving purposes, and fully deterministic.
        let target = rec.addr.wrapping_add_signed(i64::from(delta.signum().max(0) * 2 - 1) * 64);
        Candidate { inputs, target }
    }
}

/// Chaos-drill configuration.
#[derive(Debug, Clone)]
pub struct DrillConfig {
    /// Tenants in the fleet.
    pub tenants: usize,
    /// Candidates per score request.
    pub batch: usize,
    /// Virtual drill length in milliseconds (1 virtual ms ≈ 1 real ms).
    pub duration_ms: u64,
    /// Steady-state requests per virtual millisecond.
    pub base_rate: u64,
    /// Caller threads draining the schedule.
    pub callers: usize,
    /// Daemon settings (shards, deadline, checkpoint dir, faults...).
    pub serve: ServeConfig,
}

impl Default for DrillConfig {
    fn default() -> Self {
        Self {
            tenants: 6,
            batch: 4,
            duration_ms: 600,
            base_rate: 3,
            callers: 4,
            serve: ServeConfig {
                shards: 3,
                deadline: Duration::from_millis(100),
                checkpoint_every: 16,
                watchdog_limit: Duration::from_millis(300),
                supervisor_poll: Duration::from_millis(50),
                ..ServeConfig::default()
            },
        }
    }
}

/// What the drill measured. `stalled_callers` is the headline invariant:
/// it must be zero — no caller may ever block past deadline + margin.
#[derive(Debug, Clone)]
pub struct DrillReport {
    /// Requests submitted.
    pub requests: u64,
    /// Caller-observed p50 latency (µs), exact over all samples.
    pub p50_us: u64,
    /// Caller-observed p99 latency (µs).
    pub p99_us: u64,
    /// Worst caller-observed latency (µs).
    pub max_us: u64,
    /// Calls that exceeded deadline + margin (must be 0).
    pub stalled_callers: u64,
    /// Replies flagged degraded.
    pub degraded: u64,
    /// Requests shed (overflow + quota).
    pub shed: u64,
    /// Deadline misses observed by the daemon.
    pub deadline_misses: u64,
    /// Tenants rebuilt after a panic.
    pub tenant_restarts: u64,
    /// Shards replaced by the supervisor.
    pub shard_replacements: u64,
    /// Checkpoint records written / corrupted / dropped on load.
    pub checkpoint_records: u64,
    /// Records corrupted by injected bit-flips.
    pub checkpoint_bitflips: u64,
    /// Records dropped at warm-start load (CRC / torn tail).
    pub checkpoint_drops: u64,
    /// Tenants restored at the warm restart.
    pub warm_restored: u64,
    /// Restored tenants whose weights digest matched the pre-shutdown
    /// fleet exactly.
    pub warm_matched: u64,
    /// Tenants expected to mismatch (every checkpoint bit-flipped).
    pub warm_expected_mismatch: u64,
    /// Restored-but-mismatched tenants *not* explained by injected
    /// corruption (must be 0).
    pub warm_unexplained_mismatch: u64,
}

impl DrillReport {
    /// Whether the drill met the acceptance bar.
    pub fn passed(&self) -> bool {
        self.stalled_callers == 0 && self.warm_unexplained_mismatch == 0
    }

    /// One `drill` record in the shared envelope (validated by
    /// `ppf_analysis::observe`, rendered by `ppf_analysis::serve`).
    pub fn to_jsonl(&self) -> String {
        format!(
            "{},\"requests\":{},\"p50_us\":{},\"p99_us\":{},\"max_us\":{},\
             \"stalled_callers\":{},\"degraded\":{},\"shed\":{},\
             \"deadline_misses\":{},\"tenant_restarts\":{},\
             \"shard_replacements\":{},\"checkpoint_records\":{},\
             \"checkpoint_bitflips\":{},\"checkpoint_drops\":{},\
             \"warm_restored\":{},\"warm_matched\":{},\
             \"warm_expected_mismatch\":{},\"warm_unexplained_mismatch\":{}}}",
            envelope("drill"),
            self.requests,
            self.p50_us,
            self.p99_us,
            self.max_us,
            self.stalled_callers,
            self.degraded,
            self.shed,
            self.deadline_misses,
            self.tenant_restarts,
            self.shard_replacements,
            self.checkpoint_records,
            self.checkpoint_bitflips,
            self.checkpoint_drops,
            self.warm_restored,
            self.warm_matched,
            self.warm_expected_mismatch,
            self.warm_unexplained_mismatch,
        )
    }
}

/// Replaces the panic hook with one that swallows injected-fault panics
/// (the drill's own chaos) but forwards everything else. Idempotent.
pub fn silence_injected_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.contains("injected tenant fault"));
        if !injected {
            default(info);
        }
    }));
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Runs the chaos drill: spike-paced multi-tenant replay against a fleet
/// with `cfg.serve.faults` injected, followed by a warm restart from the
/// checkpoints the run produced.
pub fn run_drill(cfg: &DrillConfig) -> DrillReport {
    let spike_factor = cfg
        .serve
        .faults
        .iter()
        .find_map(|f| match f {
            FaultSpec::LoadSpike { factor } => Some(*factor),
            _ => None,
        })
        .unwrap_or(1);
    // Spike occupies the middle third of the drill.
    let plan = RatePlan::steady(cfg.base_rate).with_spike(
        cfg.duration_ms / 3,
        2 * cfg.duration_ms / 3,
        spike_factor,
    );

    let mut replay = MultiTenantReplay::new(Suite::Spec2017, cfg.tenants, cfg.batch, 0xC0FFEE);
    let tenant_names = replay.tenant_names();
    let mut trackers: HashMap<usize, FeatureTracker> = HashMap::new();

    let daemon = Daemon::start(cfg.serve.clone());
    let latencies = Mutex::new(Vec::new());
    let stall_margin = cfg.serve.deadline + Duration::from_millis(200);
    let mut requests = 0u64;

    let (tx, rx) = mpsc::channel::<ScoreRequest>();
    let rx = Mutex::new(rx);
    std::thread::scope(|scope| {
        for _ in 0..cfg.callers.max(1) {
            let rx = &rx;
            let daemon = &daemon;
            let latencies = &latencies;
            scope.spawn(move || {
                let mut local = Vec::new();
                loop {
                    let Ok(req) = lock_unpoisoned(rx).recv() else { break };
                    let start = Instant::now();
                    let _ = daemon.score(req);
                    local.push(start.elapsed().as_micros() as u64);
                }
                lock_unpoisoned(latencies).extend(local);
            });
        }

        // Pace the schedule: 1 virtual ms per real ms, submitting whatever
        // the plan says has come due.
        let mut sent = 0u64;
        for t in 0..cfg.duration_ms {
            while sent < plan.due(t + 1) {
                let mut candidates = Vec::with_capacity(cfg.batch);
                let mut tenant_idx = 0;
                let mut demands = Vec::new();
                for _ in 0..cfg.batch {
                    let (idx, rec) = replay.next_event();
                    tenant_idx = idx;
                    let c = trackers.entry(idx).or_default().observe(&rec);
                    candidates.push(c);
                    // Feed back demand on the previous target region: keeps
                    // the filters training without simulating a cache.
                    demands.push(rec.addr);
                }
                let req = ScoreRequest {
                    tenant: tenant_names[tenant_idx].clone(),
                    candidates,
                    demands,
                    evictions: Vec::new(),
                };
                if tx.send(req).is_err() {
                    break;
                }
                sent += 1;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        requests = sent;
        drop(tx);
    });

    daemon.flush();
    let pre_digests: HashMap<String, u64> = daemon
        .tenant_digests()
        .into_iter()
        .map(|(name, _gen, digest)| (name, digest))
        .collect();
    let c = daemon.counters();
    let g = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
    let (degraded, shed, misses) = (
        g(&c.degraded_replies),
        g(&c.shed_overflow) + g(&c.shed_quota),
        g(&c.deadline_misses),
    );
    let (restarts, replacements) = (g(&c.tenant_restarts), g(&c.shard_replacements));
    let (ck_records, ck_flips) = (g(&c.checkpoint_records), g(&c.checkpoint_bitflips));
    daemon.shutdown();

    // Warm restart: same checkpoint dir, no faults (the storage corruption
    // already happened — now we prove recovery).
    let restart_cfg = ServeConfig { faults: Vec::new(), ..cfg.serve.clone() };
    let daemon2 = Daemon::start(restart_cfg);
    let warm_restored = daemon2.warm_started();
    // Materialize every tenant without perturbing weights: an empty batch
    // trains nothing.
    for name in &tenant_names {
        let _ = daemon2.score(ScoreRequest {
            tenant: name.clone(),
            candidates: Vec::new(),
            demands: Vec::new(),
            evictions: Vec::new(),
        });
    }
    let bitflipped: Vec<&String> = tenant_names
        .iter()
        .filter(|n| {
            cfg.serve.faults.iter().any(|f| {
                matches!(f, FaultSpec::CheckpointBitflip { pat } if n.contains(pat.as_str()))
            })
        })
        .collect();
    let mut warm_matched = 0u64;
    let mut unexplained = 0u64;
    for (name, _gen, digest) in daemon2.tenant_digests() {
        match pre_digests.get(&name) {
            Some(&pre) if pre == digest => warm_matched += 1,
            _ if bitflipped.iter().any(|b| **b == name) => {}
            _ => unexplained += 1,
        }
    }
    let checkpoint_drops = daemon2.counters().checkpoint_drops.load(Ordering::Relaxed);
    daemon2.shutdown();

    let mut lat = lock_unpoisoned(&latencies).clone();
    lat.sort_unstable();
    let stalled = lat
        .iter()
        .filter(|&&us| Duration::from_micros(us) > stall_margin)
        .count() as u64;

    DrillReport {
        requests,
        p50_us: percentile(&lat, 0.50),
        p99_us: percentile(&lat, 0.99),
        max_us: lat.last().copied().unwrap_or(0),
        stalled_callers: stalled,
        degraded,
        shed,
        deadline_misses: misses,
        tenant_restarts: restarts,
        shard_replacements: replacements,
        checkpoint_records: ck_records,
        checkpoint_bitflips: ck_flips,
        checkpoint_drops,
        warm_restored,
        warm_matched,
        warm_expected_mismatch: bitflipped.len() as u64,
        warm_unexplained_mismatch: unexplained,
    }
}
