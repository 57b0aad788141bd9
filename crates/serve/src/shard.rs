//! A shard: one worker thread owning a slice of the tenant fleet.
//!
//! Tenants are sharded by name hash; each shard's worker thread *owns* its
//! tenants outright (no cross-shard locking — the only shared state is the
//! bounded job queue and the fleet counters). The queue is where overload
//! policy lives:
//!
//! - **Shed-oldest**: a full queue drops its oldest queued score job and
//!   answers it degraded immediately — fresher requests carry fresher
//!   prefetch candidates, and the caller is never left waiting.
//! - **Per-tenant fair quota**: one tenant may occupy at most a fixed
//!   number of queue slots; beyond that its requests are answered degraded
//!   on arrival, so a runaway tenant cannot starve its neighbours.
//!
//! Fault isolation: `catch_unwind` wraps every score. A panic poisons at
//! most the one tenant being scored — that tenant is discarded and rebuilt
//! from its last checkpoint barrier (held in memory and on disk), the
//! caller gets a degraded accept-all reply, and the shard keeps serving
//! its other tenants without missing a beat.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ppf_bench::fault::FaultSpec;
use ppf_bench::runner::lock_unpoisoned;
use ppf_bench::watchdog::Heartbeat;
use ppf_sim::{ProfConfig, SharedSpanTable, Span};

use crate::counters::Counters;
use crate::checkpoint::{RestoredTenant, ShardCheckpoint};
use crate::daemon::route_hash;
use crate::flight::{FlightKind, FlightRecorder};
use crate::protocol::{ScoreReply, ScoreRequest};
use crate::tenant::TenantState;

/// How long an idle worker waits before re-beating its heartbeat.
const IDLE_BEAT: Duration = Duration::from_millis(100);

/// One queued unit of work.
pub(crate) enum Job {
    /// Score a batch; the reply channel is bounded (capacity 1) and the
    /// caller may have given up — send errors are ignored.
    Score {
        /// The decoded request.
        req: ScoreRequest,
        /// Where the (possibly degraded) reply goes.
        reply: SyncSender<ScoreReply>,
        /// When the job entered the queue (feeds the queue-wait span).
        at: Instant,
    },
    /// Checkpoint every dirty tenant now; replies with records written.
    Flush(SyncSender<u64>),
    /// Report `(tenant, gen, weights_digest)` for every live tenant.
    Digests(SyncSender<Vec<(String, u64, u64)>>),
    /// Exit the worker loop (after a final flush).
    Stop,
}

/// Shared half of a shard: the queue callers submit into.
pub(crate) struct ShardInner {
    /// Heartbeat/watchdog name, `shard-<idx>`.
    pub name: String,
    /// Shard index (stable across replacements).
    pub idx: usize,
    /// Replacement generation (0 = original). Injected faults that model a
    /// *defective instance* (slow-shard) only apply to generation 0, so a
    /// supervisor replacement actually cures them.
    pub incarnation: u64,
    queue: Mutex<Vec<Job>>,
    cv: Condvar,
    capacity: usize,
    quota: usize,
    /// Set by the supervisor (or shutdown); the worker drains and exits,
    /// and late submitters see their jobs answered degraded.
    pub retired: AtomicBool,
    /// Always-on post-mortem event ring, dumped to disk by the supervisor
    /// when it retires this shard.
    pub flight: FlightRecorder,
    /// Fine-grained serving spans (queue wait / score / checkpoint
    /// append), served live over `OP_STATS`. Written only when
    /// `prof_on`; snapshotting an all-zero table is free.
    pub prof: SharedSpanTable,
    /// Sampled once at construction: the `observe` feature is compiled in
    /// AND `PPF_OBSERVE` turns `spans` on.
    pub prof_on: bool,
}

impl std::fmt::Debug for ShardInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardInner")
            .field("name", &self.name)
            .field("incarnation", &self.incarnation)
            .field("capacity", &self.capacity)
            .finish()
    }
}

fn send_degraded(reply: &SyncSender<ScoreReply>, n: usize) {
    // The caller may already have timed out and dropped the receiver;
    // a failed send is exactly "nobody is waiting any more".
    let _ = reply.try_send(ScoreReply::degraded(n));
}

impl ShardInner {
    pub(crate) fn new(idx: usize, incarnation: u64, capacity: usize, quota: usize) -> Self {
        Self {
            name: format!("shard-{idx}"),
            idx,
            incarnation,
            queue: Mutex::new(Vec::new()),
            cv: Condvar::new(),
            capacity: capacity.max(1),
            quota: quota.max(1),
            retired: AtomicBool::new(false),
            flight: FlightRecorder::new(),
            prof: SharedSpanTable::new(),
            prof_on: ProfConfig::from_env().stride != 0,
        }
    }

    /// Submits a score job, applying the shed policy. Every path produces
    /// exactly one reply on `reply` (possibly degraded, possibly later).
    pub(crate) fn submit_score(
        &self,
        req: ScoreRequest,
        reply: SyncSender<ScoreReply>,
        counters: &Counters,
    ) {
        let tenant_hash = route_hash(&req.tenant);
        let mut q = lock_unpoisoned(&self.queue);
        if self.retired.load(Ordering::Acquire) {
            // Raced with a replacement: fail open rather than enqueue into
            // a queue nobody will ever drain.
            counters.degraded_replies.fetch_add(1, Ordering::Relaxed);
            self.flight.record(FlightKind::Degraded, tenant_hash, req.candidates.len() as u64, 0);
            send_degraded(&reply, req.candidates.len());
            return;
        }
        let tenant_queued = q
            .iter()
            .filter(|j| matches!(j, Job::Score { req: r, .. } if r.tenant == req.tenant))
            .count();
        if tenant_queued >= self.quota {
            counters.shed_quota.fetch_add(1, Ordering::Relaxed);
            counters.degraded_replies.fetch_add(1, Ordering::Relaxed);
            self.flight.record(FlightKind::Degraded, tenant_hash, req.candidates.len() as u64, 0);
            send_degraded(&reply, req.candidates.len());
            return;
        }
        let scores_queued = q.iter().filter(|j| matches!(j, Job::Score { .. })).count();
        if scores_queued >= self.capacity {
            if let Some(oldest) =
                q.iter().position(|j| matches!(j, Job::Score { .. }))
            {
                if let Job::Score { req: old, reply: old_reply, .. } = q.remove(oldest) {
                    counters.shed_overflow.fetch_add(1, Ordering::Relaxed);
                    counters.degraded_replies.fetch_add(1, Ordering::Relaxed);
                    self.flight.record(
                        FlightKind::Degraded,
                        route_hash(&old.tenant),
                        old.candidates.len() as u64,
                        0,
                    );
                    send_degraded(&old_reply, old.candidates.len());
                }
            }
        }
        q.push(Job::Score { req, reply, at: Instant::now() });
        drop(q);
        self.cv.notify_one();
    }

    /// Submits a control job (flush / digests / stop), bypassing shed.
    pub(crate) fn submit_control(&self, job: Job) {
        let mut q = lock_unpoisoned(&self.queue);
        q.push(job);
        drop(q);
        self.cv.notify_one();
    }

    /// Marks the shard retired and wakes the worker (and any zombie).
    pub(crate) fn retire(&self) {
        self.retired.store(true, Ordering::Release);
        self.cv.notify_all();
    }

    fn next_job(&self, hb: &Heartbeat) -> Option<Job> {
        let mut q = lock_unpoisoned(&self.queue);
        loop {
            hb.beat();
            if self.retired.load(Ordering::Acquire) {
                // Drain: answer everything still queued, fail-open.
                for job in q.drain(..) {
                    match job {
                        Job::Score { req, reply, .. } => send_degraded(&reply, req.candidates.len()),
                        Job::Flush(done) => {
                            let _ = done.try_send(0);
                        }
                        Job::Digests(reply) => {
                            let _ = reply.try_send(Vec::new());
                        }
                        Job::Stop => {}
                    }
                }
                return None;
            }
            if !q.is_empty() {
                return Some(q.remove(0));
            }
            let (guard, _) = self
                .cv
                .wait_timeout(q, IDLE_BEAT)
                .unwrap_or_else(|p| p.into_inner());
            q = guard;
        }
    }
}

/// Everything the worker thread owns.
pub(crate) struct ShardWorker {
    pub inner: Arc<ShardInner>,
    pub store: ShardCheckpoint,
    pub counters: Arc<Counters>,
    pub heartbeat: Heartbeat,
    pub faults: Vec<FaultSpec>,
    pub checkpoint_every: u64,
    /// Last-known-good snapshots, kept current with the on-disk file (minus
    /// injected corruption): the in-process rebuild source after a panic.
    pub restored: HashMap<String, RestoredTenant>,
}

impl ShardWorker {
    /// Spawns the worker thread.
    pub(crate) fn spawn(mut self) -> std::thread::JoinHandle<()> {
        std::thread::Builder::new()
            .name(self.inner.name.clone())
            .spawn(move || self.run())
            .expect("spawn shard worker")
    }

    fn run(&mut self) {
        let mut tenants: HashMap<String, TenantState> = HashMap::new();
        loop {
            self.heartbeat.beat();
            let Some(job) = self.inner.next_job(&self.heartbeat) else { return };
            match job {
                Job::Score { req, reply, at } => self.score(&mut tenants, req, reply, at),
                Job::Flush(done) => {
                    let _ = done.try_send(self.flush(&mut tenants));
                }
                Job::Digests(reply) => {
                    let mut out: Vec<(String, u64, u64)> = tenants
                        .iter()
                        .map(|(n, t)| (n.clone(), t.gen, t.filter.weights_digest()))
                        .collect();
                    out.sort();
                    let _ = reply.try_send(out);
                }
                Job::Stop => {
                    self.flush(&mut tenants);
                    return;
                }
            }
        }
    }

    fn build_tenant(&self, name: &str) -> TenantState {
        match self.restored.get(name) {
            Some(r) => TenantState::warm(name, r.gen, &r.weights).unwrap_or_else(|e| {
                eprintln!("[serve] {}: checkpoint for {name} unusable ({e}); fresh start", self.inner.name);
                TenantState::fresh(name)
            }),
            None => TenantState::fresh(name),
        }
    }

    fn score(
        &mut self,
        tenants: &mut HashMap<String, TenantState>,
        req: ScoreRequest,
        reply: SyncSender<ScoreReply>,
        queued_at: Instant,
    ) {
        if self.inner.prof_on {
            self.inner
                .prof
                .record_ns(Span::QueueWait, queued_at.elapsed().as_nanos() as u64);
        }
        let tenant_hash = route_hash(&req.tenant);
        if self.inner.incarnation == 0 {
            for f in &self.faults {
                if let FaultSpec::SlowShard { shard, millis } = f {
                    if *shard == self.inner.idx {
                        self.inner.flight.record(FlightKind::SlowInject, 0, *millis, 0);
                        std::thread::sleep(Duration::from_millis(*millis));
                    }
                }
            }
        }
        let name = req.tenant.clone();
        if !tenants.contains_key(&name) {
            tenants.insert(name.clone(), self.build_tenant(&name));
        }
        let tenant = tenants.get_mut(&name).expect("just inserted");

        let inject = self.inner.incarnation == 0
            && self.faults.iter().any(|f| {
                matches!(f, FaultSpec::TenantPanic { pat, nth }
                    if name.contains(pat.as_str()) && *nth == tenant.seen + 1)
            });
        // The score is timed unconditionally: the flight recorder (always
        // on) wants per-job durations; the span table additionally rolls
        // them up when profiling is enabled.
        let score_t0 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if inject {
                panic!("injected tenant fault: {name}");
            }
            tenant.process(&req)
        }));
        let score_ns = score_t0.elapsed().as_nanos() as u64;
        if self.inner.prof_on {
            self.inner.prof.record_ns(Span::Score, score_ns);
        }
        match outcome {
            Ok(decisions) => {
                let accepted = decisions
                    .iter()
                    .filter(|d| !matches!(d, ppf::Decision::Reject))
                    .count() as u64;
                let rejected = decisions.len() as u64 - accepted;
                self.counters.candidates.fetch_add(decisions.len() as u64, Ordering::Relaxed);
                self.counters.accepted.fetch_add(accepted, Ordering::Relaxed);
                self.counters.rejected.fetch_add(rejected, Ordering::Relaxed);
                self.inner.flight.record_score(
                    tenant_hash,
                    decisions.len() as u64,
                    accepted,
                    score_ns / 1_000,
                );
                let _ = reply.try_send(ScoreReply { degraded: false, decisions });
                // A zombie worker (replaced mid-job by the supervisor) must
                // not keep appending stale generations to a file its
                // replacement now owns.
                if self.inner.retired.load(Ordering::Acquire) {
                    return;
                }
                if tenant.since_checkpoint >= self.checkpoint_every {
                    self.checkpoint_one(tenants.get_mut(&name).expect("still present"));
                }
            }
            Err(_) => {
                // The tenant's filter may be mid-mutation: discard it and
                // rebuild from the last checkpoint barrier. Other tenants
                // on this shard are untouched.
                let restarts = self.counters.tenant_restarts.fetch_add(1, Ordering::Relaxed) + 1;
                self.counters.degraded_replies.fetch_add(1, Ordering::Relaxed);
                self.inner.flight.record(FlightKind::Panic, tenant_hash, restarts, score_ns / 1_000);
                let mut rebuilt = self.build_tenant(&name);
                // Keep the fault trigger one-shot: the rebuilt tenant
                // restarts its request count, so carry the poisoned
                // tenant's count forward past the trigger.
                rebuilt.seen = tenants[&name].seen + 1;
                tenants.insert(name.clone(), rebuilt);
                send_degraded(&reply, req.candidates.len());
            }
        }
    }

    fn checkpoint_one(&mut self, tenant: &mut TenantState) -> u64 {
        let (gen, weights) = tenant.barrier();
        let bitflip = self.faults.iter().any(|f| {
            matches!(f, FaultSpec::CheckpointBitflip { pat } if tenant.name.contains(pat.as_str()))
        });
        let append_t0 = Instant::now();
        match self.store.append(&tenant.name, gen, &weights, bitflip) {
            Ok(()) => {
                let append_ns = append_t0.elapsed().as_nanos() as u64;
                if self.inner.prof_on {
                    self.inner.prof.record_ns(Span::CheckpointAppend, append_ns);
                }
                self.inner.flight.record(
                    FlightKind::Checkpoint,
                    route_hash(&tenant.name),
                    gen,
                    append_ns / 1_000,
                );
                self.counters.checkpoint_records.fetch_add(1, Ordering::Relaxed);
                if bitflip {
                    self.counters.checkpoint_bitflips.fetch_add(1, Ordering::Relaxed);
                }
                // The in-memory rebuild source holds the *intended* bytes;
                // injected disk corruption is the CRC seal's problem.
                self.restored
                    .insert(tenant.name.clone(), RestoredTenant { gen, weights });
                1
            }
            Err(e) => {
                // Fail open: serving continues on the previous snapshot.
                eprintln!("[serve] {}: checkpoint append failed: {e}", self.inner.name);
                0
            }
        }
    }

    fn flush(&mut self, tenants: &mut HashMap<String, TenantState>) -> u64 {
        let mut names: Vec<String> = tenants
            .iter()
            .filter(|(_, t)| t.since_checkpoint > 0)
            .map(|(n, _)| n.clone())
            .collect();
        names.sort();
        let mut written = 0;
        for name in names {
            let tenant = tenants.get_mut(&name).expect("present");
            written += self.checkpoint_one(tenant);
        }
        written
    }
}
