//! A shard: one worker thread plus the tenant state it shares with the
//! threads that submit to it.
//!
//! Tenants are sharded by name hash; each shard's tenants sit behind one
//! lock in the shard (no cross-shard locking: the only fleet-wide shared
//! state is the counters). A request is scored by one function,
//! [`ShardInner::score_locked`], on one of two threads:
//!
//! - **Inline**, on the thread that submitted it (a socket connection
//!   thread or an in-process `Daemon::score` caller), when the shard has
//!   no score job queued, the tenant lock is free, and no `slow-shard`
//!   fault targets the shard. The request then wakes no worker.
//! - **Queued**, on the shard's worker thread, otherwise.
//!
//! The queue is where overload policy lives:
//!
//! - **Shed-oldest**: a full queue drops its oldest queued score job and
//!   answers it degraded immediately — fresher requests carry fresher
//!   prefetch candidates, and the caller is never left waiting.
//! - **Per-tenant fair quota**: one tenant may occupy at most a fixed
//!   number of queue slots; beyond that its requests are answered degraded
//!   on arrival, so a runaway tenant cannot starve its neighbours.
//!
//! Checkpoint barriers are taken under the tenant lock, at the cadence,
//! by whichever thread scored the request that reached it. The snapshot
//! waits in memory for the worker, which alone appends to the file: a
//! queued append names only the tenant, and the worker writes whatever
//! snapshot of that tenant is newest when it gets there. So a tenant's
//! generations reach the file in order, and at most one append per tenant
//! waits in the queue however far the disk falls behind.
//!
//! Fault isolation: `catch_unwind` wraps every score. A panic poisons at
//! most the one tenant being scored — that tenant is discarded and rebuilt
//! from its last checkpoint barrier (held in memory and on disk), the
//! caller gets a degraded accept-all reply, and the shard keeps serving
//! its other tenants without missing a beat.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, TryLockError};
use std::time::{Duration, Instant};

use ppf_sim::fault::{lock_unpoisoned, FaultSpec};
use ppf_sim::{ProfConfig, SharedSpanTable, Span};

use crate::checkpoint::{RestoredTenant, ShardCheckpoint};
use crate::counters::Counters;
use crate::daemon::{route_hash, ServeConfig};
use crate::flight::{FlightKind, FlightRecorder};
use crate::protocol::{ScoreReply, ScoreRequest};
use crate::reply::ReplySlot;
use crate::tenant::TenantState;
use crate::watchdog::Heartbeat;

/// How long an idle worker waits before re-beating its heartbeat.
const IDLE_BEAT: Duration = Duration::from_millis(100);

/// One queued unit of work.
pub(crate) enum Job {
    /// Score a batch. The slot may already be answered (the deadline
    /// passed), and then the late answer is dropped.
    Score {
        /// The decoded request.
        req: ScoreRequest,
        /// Where the (possibly degraded) reply goes.
        reply: ReplySlot,
        /// When the job entered the queue (feeds the queue-wait span).
        at: Instant,
    },
    /// Append the tenant's newest snapshot to the shard's file, unless it
    /// is there already.
    Append(String),
    /// Checkpoint every dirty tenant now; replies with records written.
    Flush(SyncSender<u64>),
    /// Report `(tenant, gen, weights_digest)` for every live tenant.
    Digests(SyncSender<Vec<(String, u64, u64)>>),
    /// Exit the worker loop (after a final flush).
    Stop,
}

/// The shard's job queue, with its score jobs counted.
#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    /// `Job::Score` entries in `jobs`.
    scores: usize,
}

impl Queue {
    fn push(&mut self, job: Job) {
        self.scores += usize::from(matches!(job, Job::Score { .. }));
        self.jobs.push_back(job);
    }

    fn pop(&mut self) -> Option<Job> {
        let job = self.jobs.pop_front()?;
        self.scores -= usize::from(matches!(job, Job::Score { .. }));
        Some(job)
    }
}

/// The tenant state a shard's scorers share, behind the shard's lock.
struct ShardState {
    tenants: HashMap<String, TenantState>,
    /// Last-known-good snapshots: the in-process rebuild source after a
    /// panic. Each barrier updates it with the snapshot it takes (the
    /// intended bytes, whatever injected corruption the file then gets).
    restored: HashMap<String, RestoredTenant>,
    /// Tenants whose snapshot in `restored` has not reached the file yet.
    unwritten: BTreeSet<String>,
}

/// Takes a barrier on `tenant`: its snapshot becomes the tenant's rebuild
/// source in `restored` and waits in `unwritten` for the file. Returns
/// whether the tenant needs an append queued (it had none pending).
fn barrier(
    restored: &mut HashMap<String, RestoredTenant>,
    unwritten: &mut BTreeSet<String>,
    tenant: &mut TenantState,
) -> bool {
    let (gen, weights) = tenant.barrier();
    restored.insert(tenant.name.clone(), RestoredTenant { gen, weights });
    unwritten.insert(tenant.name.clone())
}

/// Builds `name` from its last snapshot in `restored`, or fresh.
fn build_tenant(
    restored: &HashMap<String, RestoredTenant>,
    name: &str,
    shard: &str,
) -> TenantState {
    match restored.get(name) {
        Some(r) => TenantState::warm(name, r.gen, &r.weights).unwrap_or_else(|e| {
            eprintln!("[serve] {shard}: checkpoint for {name} unusable ({e}); fresh start");
            TenantState::fresh(name)
        }),
        None => TenantState::fresh(name),
    }
}

/// A request being scored on the thread that submitted it.
struct InlineScore {
    since: Instant,
    /// Taken by the supervisor when it answers the request itself.
    reply: Option<ReplySlot>,
}

/// Shared half of a shard: the queue callers submit into and the tenant
/// state every scorer locks.
pub(crate) struct ShardInner {
    /// Heartbeat/watchdog name, `shard-<idx>`.
    pub name: String,
    /// Shard index (stable across replacements).
    pub idx: usize,
    /// Replacement generation (0 = original). Injected faults that model a
    /// *defective instance* (slow-shard, tenant-panic) only apply to
    /// generation 0, so a supervisor replacement actually cures them.
    pub incarnation: u64,
    queue: Mutex<Queue>,
    cv: Condvar,
    capacity: usize,
    quota: usize,
    /// The shard's tenants, locked by whichever thread scores.
    state: Mutex<ShardState>,
    /// The request being scored inline, if any, so the supervisor can
    /// answer it when it overruns its deadline.
    inline: Mutex<Option<InlineScore>>,
    /// Whether a submitter may score inline: false while a `slow-shard`
    /// fault targets this instance, so the injected stall stays on the
    /// worker.
    inline_ok: bool,
    faults: Vec<FaultSpec>,
    checkpoint_every: u64,
    counters: Arc<Counters>,
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

impl ShardInner {
    pub(crate) fn new(
        idx: usize,
        incarnation: u64,
        cfg: &ServeConfig,
        counters: &Arc<Counters>,
        restored: HashMap<String, RestoredTenant>,
    ) -> Self {
        let inline_ok = incarnation > 0
            || !cfg
                .faults
                .iter()
                .any(|f| matches!(f, FaultSpec::SlowShard { shard, .. } if *shard == idx));
        Self {
            name: format!("shard-{idx}"),
            idx,
            incarnation,
            queue: Mutex::new(Queue::default()),
            cv: Condvar::new(),
            capacity: cfg.queue_capacity.max(1),
            quota: cfg.tenant_quota.max(1),
            state: Mutex::new(ShardState {
                tenants: HashMap::new(),
                restored,
                unwritten: BTreeSet::new(),
            }),
            inline: Mutex::new(None),
            inline_ok,
            faults: cfg.faults.clone(),
            checkpoint_every: cfg.checkpoint_every.max(1),
            counters: Arc::clone(counters),
            retired: AtomicBool::new(false),
            flight: FlightRecorder::new(),
            prof: SharedSpanTable::new(),
            prof_on: ProfConfig::from_env().stride != 0,
        }
    }

    /// Submits a score request. With no score job queued and the tenant
    /// lock free, the calling thread scores it and answers `reply` itself;
    /// otherwise it is queued for the worker under the shed policy. Every
    /// path answers `reply` exactly once (possibly degraded, possibly
    /// later). An answer may write to a socket, so it is given after the
    /// queue and tenant locks are released.
    pub(crate) fn submit_score(&self, req: ScoreRequest, reply: ReplySlot) {
        let counters = &*self.counters;
        let mut q = lock_unpoisoned(&self.queue);
        if self.retired.load(Ordering::Acquire) {
            // Raced with a replacement: fail open rather than enqueue into
            // a queue nobody will ever drain.
            drop(q);
            self.shed(&req, reply);
            return;
        }
        if q.scores == 0 && self.inline_ok {
            let state = match self.state.try_lock() {
                Ok(st) => Some(st),
                Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
                Err(TryLockError::WouldBlock) => None,
            };
            if let Some(st) = state {
                drop(q);
                self.score_inline(st, req, reply);
                return;
            }
        }
        // One pass: the tenant's queued jobs and the oldest score job.
        let (mut tenant_queued, mut oldest) = (0, None);
        for (i, job) in q.jobs.iter().enumerate() {
            if let Job::Score { req: r, .. } = job {
                oldest = oldest.or(Some(i));
                tenant_queued += usize::from(r.tenant == req.tenant);
            }
        }
        if tenant_queued >= self.quota {
            drop(q);
            counters.shed_quota.fetch_add(1, Ordering::Relaxed);
            self.shed(&req, reply);
            return;
        }
        let mut shed = None;
        if q.scores >= self.capacity {
            if let Some(i) = oldest {
                shed = q.jobs.remove(i);
                q.scores -= 1;
            }
        }
        q.push(Job::Score { req, reply, at: Instant::now() });
        drop(q);
        self.cv.notify_one();
        if let Some(Job::Score { req: old, reply: old_reply, .. }) = shed {
            counters.shed_overflow.fetch_add(1, Ordering::Relaxed);
            self.shed(&old, old_reply);
        }
    }

    /// Answers `reply` degraded on arrival (retired shard or shed).
    fn shed(&self, req: &ScoreRequest, reply: ReplySlot) {
        self.counters.degraded_replies.fetch_add(1, Ordering::Relaxed);
        self.flight.record(
            FlightKind::Degraded,
            route_hash(&req.tenant),
            req.candidates.len() as u64,
            0,
        );
        reply.degrade();
    }

    /// Scores `req` on the submitting thread, which holds the tenant lock.
    /// The slot is parked in `inline` meanwhile, where the supervisor
    /// finds it if the score overruns the deadline.
    fn score_inline(&self, mut st: MutexGuard<'_, ShardState>, req: ScoreRequest, reply: ReplySlot) {
        *lock_unpoisoned(&self.inline) =
            Some(InlineScore { since: Instant::now(), reply: Some(reply) });
        let out = self.score_locked(&mut st, &req);
        // Take the slot back before the tenant lock goes: the next inline
        // scorer parks its own slot there.
        let reply = lock_unpoisoned(&self.inline).take().and_then(|s| s.reply);
        drop(st);
        self.counters.inline_scores.fetch_add(1, Ordering::Relaxed);
        if let Some(reply) = reply {
            reply.answer(out);
        }
    }

    /// The supervisor's check of the inline score, once per poll. Answers
    /// its slot degraded once it is past its deadline, and returns whether
    /// the score has run for longer than `limit`: the shard is then stuck,
    /// as with a stalled heartbeat, and its slot is answered at once, as a
    /// retiring shard's drain answers its queued jobs.
    pub(crate) fn police_inline(&self, limit: Duration) -> bool {
        let (reply, stuck) = match lock_unpoisoned(&self.inline).as_mut() {
            Some(s) => {
                let stuck = s.since.elapsed() > limit;
                (s.reply.take_if(|r| stuck || r.overdue()), stuck)
            }
            None => (None, false),
        };
        if let Some(reply) = reply {
            if reply.overdue() {
                reply.expire();
            } else {
                reply.degrade();
            }
        }
        stuck
    }

    /// Scores `req` against the shard's tenants: the one scoring path,
    /// run by the worker for a queued job and by a submitter inline. When
    /// the tenant's checkpoint cadence comes due, takes the barrier and,
    /// unless the tenant already has one pending, queues an append for the
    /// worker.
    fn score_locked(&self, st: &mut ShardState, req: &ScoreRequest) -> ScoreReply {
        let name = req.tenant.as_str();
        let tenant_hash = route_hash(name);
        let tenant = match st.tenants.get_mut(name) {
            Some(t) => t,
            None => {
                let t = build_tenant(&st.restored, name, &self.name);
                st.tenants.entry(name.to_owned()).or_insert(t)
            }
        };
        let inject = self.incarnation == 0
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
            tenant.process(req)
        }));
        let score_ns = score_t0.elapsed().as_nanos() as u64;
        if self.prof_on {
            self.prof.record_ns(Span::Score, score_ns);
        }
        let counters = &*self.counters;
        match outcome {
            Ok(decisions) => {
                let accepted = decisions
                    .iter()
                    .filter(|d| !matches!(d, ppf::Decision::Reject))
                    .count() as u64;
                let rejected = decisions.len() as u64 - accepted;
                counters.candidates.fetch_add(decisions.len() as u64, Ordering::Relaxed);
                counters.accepted.fetch_add(accepted, Ordering::Relaxed);
                counters.rejected.fetch_add(rejected, Ordering::Relaxed);
                self.flight.record_score(
                    tenant_hash,
                    decisions.len() as u64,
                    accepted,
                    score_ns / 1_000,
                );
                // A retired shard's state is abandoned: its replacement
                // owns the checkpoint file now.
                if tenant.since_checkpoint >= self.checkpoint_every
                    && !self.retired.load(Ordering::Acquire)
                    && barrier(&mut st.restored, &mut st.unwritten, tenant)
                {
                    self.submit_control(Job::Append(name.to_owned()));
                }
                ScoreReply { degraded: false, decisions }
            }
            Err(_) => {
                // The tenant's filter may be mid-mutation: discard it and
                // rebuild from the last checkpoint barrier. Other tenants
                // on this shard are untouched.
                let restarts = counters.tenant_restarts.fetch_add(1, Ordering::Relaxed) + 1;
                counters.degraded_replies.fetch_add(1, Ordering::Relaxed);
                self.flight.record(FlightKind::Panic, tenant_hash, restarts, score_ns / 1_000);
                let mut rebuilt = build_tenant(&st.restored, name, &self.name);
                // Keep the fault trigger one-shot: the rebuilt tenant
                // restarts its request count, so carry the poisoned
                // tenant's count forward past the trigger.
                rebuilt.seen = tenant.seen + 1;
                *tenant = rebuilt;
                ScoreReply::degraded(req.candidates.len())
            }
        }
    }

    /// Submits a control job (append / flush / digests / stop), bypassing
    /// shed.
    pub(crate) fn submit_control(&self, job: Job) {
        lock_unpoisoned(&self.queue).push(job);
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
                // Drain: answer everything still queued, fail-open, after
                // the lock is released (an answer may write to a socket).
                // Queued appends are dropped: the replacement owns the file.
                let drained = std::mem::take(&mut *q);
                drop(q);
                for job in drained.jobs {
                    match job {
                        Job::Score { reply, .. } => {
                            reply.degrade();
                        }
                        Job::Flush(done) => {
                            let _ = done.try_send(0);
                        }
                        Job::Digests(reply) => {
                            let _ = reply.try_send(Vec::new());
                        }
                        Job::Append(_) | Job::Stop => {}
                    }
                }
                return None;
            }
            if let Some(job) = q.pop() {
                return Some(job);
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
    pub heartbeat: Heartbeat,
}

impl ShardWorker {
    /// Spawns the worker thread.
    pub(crate) fn spawn(self) -> std::thread::JoinHandle<()> {
        std::thread::Builder::new()
            .name(self.inner.name.clone())
            .spawn(move || self.run())
            .expect("spawn shard worker")
    }

    fn run(&self) {
        loop {
            self.heartbeat.beat();
            let Some(job) = self.inner.next_job(&self.heartbeat) else { return };
            match job {
                Job::Score { req, reply, at } => self.score(req, reply, at),
                Job::Append(tenant) => {
                    // A zombie worker (replaced by the supervisor) must not
                    // keep appending stale generations to a file its
                    // replacement now owns.
                    if !self.inner.retired.load(Ordering::Acquire) {
                        self.append_unwritten(&tenant);
                    }
                }
                Job::Flush(done) => {
                    let _ = done.try_send(self.flush());
                }
                Job::Digests(reply) => {
                    let st = lock_unpoisoned(&self.inner.state);
                    let mut out: Vec<(String, u64, u64)> = st
                        .tenants
                        .iter()
                        .map(|(n, t)| (n.clone(), t.gen, t.filter.weights_digest()))
                        .collect();
                    drop(st);
                    out.sort();
                    let _ = reply.try_send(out);
                }
                Job::Stop => {
                    self.flush();
                    return;
                }
            }
        }
    }

    fn score(&self, req: ScoreRequest, reply: ReplySlot, queued_at: Instant) {
        let inner = &*self.inner;
        if inner.prof_on {
            inner.prof.record_ns(Span::QueueWait, queued_at.elapsed().as_nanos() as u64);
        }
        for f in &inner.faults {
            if let FaultSpec::SlowShard { shard, millis } = f {
                if *shard == inner.idx && inner.incarnation == 0 {
                    inner.flight.record(FlightKind::SlowInject, 0, *millis, 0);
                    std::thread::sleep(Duration::from_millis(*millis));
                }
            }
        }
        let out = inner.score_locked(&mut lock_unpoisoned(&inner.state), &req);
        reply.answer(out);
    }

    /// Appends `tenant`'s newest snapshot if it has not reached the file
    /// yet (a `Flush` may have written it since the append was queued).
    fn append_unwritten(&self, tenant: &str) -> u64 {
        let snapshot = {
            let mut st = lock_unpoisoned(&self.inner.state);
            if !st.unwritten.remove(tenant) {
                return 0;
            }
            st.restored.get(tenant).map(|r| (r.gen, r.weights.clone()))
        };
        snapshot.map_or(0, |(gen, weights)| self.append(tenant, gen, &weights))
    }

    /// Appends one sealed record; returns records written (0 or 1).
    fn append(&self, tenant: &str, gen: u64, weights: &[u8]) -> u64 {
        let inner = &*self.inner;
        let bitflip = inner.faults.iter().any(|f| {
            matches!(f, FaultSpec::CheckpointBitflip { pat } if tenant.contains(pat.as_str()))
        });
        let append_t0 = Instant::now();
        match self.store.append(tenant, gen, weights, bitflip) {
            Ok(()) => {
                let append_ns = append_t0.elapsed().as_nanos() as u64;
                if inner.prof_on {
                    inner.prof.record_ns(Span::CheckpointAppend, append_ns);
                }
                inner.flight.record(
                    FlightKind::Checkpoint,
                    route_hash(tenant),
                    gen,
                    append_ns / 1_000,
                );
                inner.counters.checkpoint_records.fetch_add(1, Ordering::Relaxed);
                if bitflip {
                    inner.counters.checkpoint_bitflips.fetch_add(1, Ordering::Relaxed);
                }
                1
            }
            Err(e) => {
                // Fail open: serving continues, and a restart falls back to
                // the tenant's previous record on disk.
                eprintln!("[serve] {}: checkpoint append failed: {e}", inner.name);
                0
            }
        }
    }

    /// Takes a barrier on every dirty tenant and appends every snapshot
    /// not yet on file, in name order. The barriers are taken under the
    /// tenant lock and appended after it is released; an append still
    /// queued for one of these tenants then finds nothing to write.
    fn flush(&self) -> u64 {
        let snapshots: Vec<(String, u64, Vec<u8>)> = {
            let mut guard = lock_unpoisoned(&self.inner.state);
            let st = &mut *guard;
            for tenant in st.tenants.values_mut().filter(|t| t.since_checkpoint > 0) {
                barrier(&mut st.restored, &mut st.unwritten, tenant);
            }
            std::mem::take(&mut st.unwritten)
                .into_iter()
                .filter_map(|name| {
                    let r = st.restored.get(&name)?;
                    let (gen, weights) = (r.gen, r.weights.clone());
                    Some((name, gen, weights))
                })
                .collect()
        };
        snapshots.iter().map(|(tenant, gen, weights)| self.append(tenant, *gen, weights)).sum()
    }
}
