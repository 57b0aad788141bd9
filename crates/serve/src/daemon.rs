//! The filter-fleet daemon: routing, deadlines, supervision, warm start.
//!
//! The daemon is the caller-facing half of the serving stack. It routes
//! each tenant to a shard by name hash, enforces the caller deadline (a
//! late shard produces a degraded accept-all reply — a socket client or a
//! queued caller is never stalled, whatever the fleet is doing; an
//! in-process caller scoring inline returns when its own score does), and
//! runs a supervisor thread that watches shard heartbeats and inline
//! scores, and replaces a stalled shard wholesale: the stuck worker is
//! *abandoned*, not joined (joining a hung thread would just move the hang
//! into the supervisor), a fresh worker warm starts the shard's tenants
//! from its checkpoint file, and the zombie — which may wake up later —
//! sees its retired flag and exits. If it wakes
//! mid-checkpoint-append instead, the CRC seal on every record keeps the
//! interleaving from being trusted on the next load.
//!
//! Failure ladder, mildest first:
//!
//! 1. queue pressure → shed oldest / per-tenant quota (degraded replies)
//! 2. tenant panic → quarantine + rebuild from last checkpoint barrier
//! 3. missed deadline → degraded reply from the waiting side (fail open),
//!    or from the supervisor when the request is being scored inline on
//!    the thread that would wait
//! 4. stalled heartbeat, or an inline score running past the watchdog
//!    limit → supervisor replaces the whole shard
//! 5. corrupt/torn checkpoint record → dropped by CRC, older gen wins

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ppf_sim::fault::{lock_unpoisoned, FaultSpec};
use ppf_sim::{ProfConfig, SharedSpanTable, Span};

use crate::checkpoint::ShardCheckpoint;
use crate::counters::Counters;
use crate::protocol::{ScoreReply, ScoreRequest};
use crate::reply::ReplySlot;
use crate::shard::{Job, ShardInner, ShardWorker};
use crate::watchdog::Watchdog;

/// Daemon configuration. Defaults are sized for tests and the chaos
/// drill; production callers tune per deployment.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker shards (tenants are hashed across them).
    pub shards: usize,
    /// Max queued score jobs per shard before shed-oldest kicks in.
    pub queue_capacity: usize,
    /// Max queued score jobs per tenant (fair-share quota).
    pub tenant_quota: usize,
    /// Caller deadline: a reply not produced in time degrades.
    pub deadline: Duration,
    /// Checkpoint barrier cadence, in score requests per tenant.
    pub checkpoint_every: u64,
    /// Directory holding `shard-<k>.jsonl` checkpoint files.
    pub checkpoint_dir: PathBuf,
    /// Heartbeat age at which the supervisor declares a shard stalled.
    pub watchdog_limit: Duration,
    /// Supervisor poll interval.
    pub supervisor_poll: Duration,
    /// Injected faults (chaos drills); empty in production.
    pub faults: Vec<FaultSpec>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            shards: 2,
            queue_capacity: 64,
            tenant_quota: 16,
            deadline: Duration::from_millis(100),
            checkpoint_every: 32,
            checkpoint_dir: PathBuf::from("results/serve-checkpoints"),
            watchdog_limit: Duration::from_millis(500),
            supervisor_poll: Duration::from_millis(50),
            faults: Vec::new(),
        }
    }
}

struct ShardSlot {
    inner: Arc<ShardInner>,
    worker: Option<std::thread::JoinHandle<()>>,
}

/// A running filter fleet.
pub struct Daemon {
    cfg: ServeConfig,
    counters: Arc<Counters>,
    watchdog: Arc<Watchdog>,
    slots: Arc<Vec<Mutex<ShardSlot>>>,
    supervisor: Option<std::thread::JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    started: Instant,
    /// Daemon-level span table: request decode happens on the socket
    /// threads, outside any shard, so it rolls up here.
    decode_prof: SharedSpanTable,
    prof_on: bool,
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon").field("shards", &self.cfg.shards).finish()
    }
}

/// FNV-1a over the tenant name: the shard routing hash. Stable across
/// runs and processes, so a tenant always lands on the same shard — a
/// requirement for finding its checkpoints again after a restart. The
/// flight recorder reuses it as the on-disk tenant identifier.
pub(crate) fn route_hash(tenant: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in tenant.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl Daemon {
    /// Boots the fleet: loads each shard's checkpoint file (tolerantly),
    /// compacts it, spawns the workers, and starts the supervisor.
    pub fn start(cfg: ServeConfig) -> Self {
        assert!(cfg.shards > 0, "need at least one shard");
        let counters = Arc::new(Counters::new());
        let watchdog = Arc::new(Watchdog::new(cfg.watchdog_limit));
        let mut slots = Vec::with_capacity(cfg.shards);
        for idx in 0..cfg.shards {
            slots.push(Mutex::new(Self::boot_shard(&cfg, idx, 0, &counters, &watchdog)));
        }
        let slots = Arc::new(slots);
        let stop = Arc::new(AtomicBool::new(false));
        let supervisor = {
            let cfg = cfg.clone();
            let slots = Arc::clone(&slots);
            let counters = Arc::clone(&counters);
            let watchdog = Arc::clone(&watchdog);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("serve-supervisor".into())
                .spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        std::thread::sleep(cfg.supervisor_poll);
                        // An inline score past its deadline has its slot
                        // answered degraded (rung 3); one that runs past
                        // the watchdog limit retires its shard, as a
                        // stalled heartbeat does (rung 4). The slot lock is
                        // not held meanwhile: the answer may write to a
                        // socket, and submitters take that lock to route.
                        for (idx, slot) in slots.iter().enumerate() {
                            let inner = Arc::clone(&lock_unpoisoned(slot).inner);
                            if inner.police_inline(cfg.watchdog_limit) {
                                Self::replace_shard(
                                    &cfg,
                                    &mut lock_unpoisoned(slot),
                                    idx,
                                    "inline score ran past the watchdog limit",
                                    &counters,
                                    &watchdog,
                                );
                            }
                        }
                        for (name, _age) in watchdog.stalled() {
                            let Some(idx) = name
                                .strip_prefix("shard-")
                                .and_then(|s| s.parse::<usize>().ok())
                            else {
                                continue;
                            };
                            let Some(slot) = slots.get(idx) else { continue };
                            let mut slot = lock_unpoisoned(slot);
                            if slot.inner.name != name {
                                continue;
                            }
                            Self::replace_shard(
                                &cfg,
                                &mut slot,
                                idx,
                                "heartbeat stalled",
                                &counters,
                                &watchdog,
                            );
                        }
                    }
                })
                .expect("spawn supervisor")
        };
        Self {
            cfg,
            counters,
            watchdog,
            slots,
            supervisor: Some(supervisor),
            stop,
            started: Instant::now(),
            decode_prof: SharedSpanTable::new(),
            prof_on: ProfConfig::from_env().stride != 0,
        }
    }

    /// Retires the shard in `slot` and boots its replacement from the
    /// shard's checkpoint file at the next incarnation.
    fn replace_shard(
        cfg: &ServeConfig,
        slot: &mut ShardSlot,
        idx: usize,
        why: &str,
        counters: &Arc<Counters>,
        watchdog: &Arc<Watchdog>,
    ) {
        let incarnation = slot.inner.incarnation + 1;
        eprintln!(
            "[serve] supervisor: {} {why}; replacing (incarnation {incarnation})",
            slot.inner.name
        );
        slot.inner.retire();
        // Post-mortem before the ring goes away with the slot: the
        // retiring shard's flight recorder hits disk next to its
        // checkpoints.
        Self::dump_black_box(&cfg.checkpoint_dir, &slot.inner);
        // Abandon the stuck worker: its JoinHandle is dropped, the thread
        // detaches, and the retired flag reaps it if it ever wakes.
        slot.worker.take();
        *slot = Self::boot_shard(cfg, idx, incarnation, counters, watchdog);
        counters.shard_replacements.fetch_add(1, Ordering::Relaxed);
    }

    /// Writes the retiring shard's flight-recorder ring (JSONL) and its
    /// human-readable rendering (`.trace`) into the checkpoint directory:
    /// `flight-shard<idx>-inc<inc>.{jsonl,trace}`.
    /// Failures are reported, never fatal — the replacement matters more
    /// than the post-mortem.
    fn dump_black_box(dir: &std::path::Path, inner: &ShardInner) {
        let tag = format!("shard{}-inc{}", inner.idx, inner.incarnation);
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("[serve] flight dump dir {} unavailable: {e}", dir.display());
            return;
        }
        let jsonl = dir.join(format!("flight-{tag}.jsonl"));
        if let Err(e) = std::fs::write(&jsonl, inner.flight.to_jsonl()) {
            eprintln!("[serve] flight dump {} failed: {e}", jsonl.display());
        }
        let trace = dir.join(format!("flight-{tag}.trace"));
        if let Err(e) = std::fs::write(&trace, inner.flight.render()) {
            eprintln!("[serve] flight trace {} failed: {e}", trace.display());
        }
    }

    fn boot_shard(
        cfg: &ServeConfig,
        idx: usize,
        incarnation: u64,
        counters: &Arc<Counters>,
        watchdog: &Arc<Watchdog>,
    ) -> ShardSlot {
        let store = ShardCheckpoint::new(&cfg.checkpoint_dir, idx);
        let restored = store.load();
        counters.checkpoint_drops.fetch_add(restored.dropped, Ordering::Relaxed);
        if incarnation == 0 {
            counters
                .warm_started_tenants
                .fetch_add(restored.tenants.len() as u64, Ordering::Relaxed);
        }
        if !restored.tenants.is_empty() {
            // Bound file growth; also proves the surviving records parse.
            if let Err(e) = store.compact(&restored.tenants) {
                eprintln!("[serve] shard-{idx}: compaction failed: {e}");
            }
        }
        let inner = Arc::new(ShardInner::new(idx, incarnation, cfg, counters, restored.tenants));
        let heartbeat = watchdog.register(&inner.name);
        let worker = ShardWorker { inner: Arc::clone(&inner), store, heartbeat }.spawn();
        ShardSlot { inner, worker: Some(worker) }
    }

    /// Tenants restored from checkpoints at boot (the warm-start banner).
    pub fn warm_started(&self) -> u64 {
        self.counters.warm_started_tenants.load(Ordering::Relaxed)
    }

    /// The fleet counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Shard index serving `tenant`.
    pub fn route(&self, tenant: &str) -> usize {
        (route_hash(tenant) % self.cfg.shards as u64) as usize
    }

    /// Scores a batch, observing the caller deadline; a missed deadline,
    /// shed, or tenant panic all yield a degraded accept-all reply. When
    /// the tenant's shard is idle the batch is scored on the calling
    /// thread, and the call returns when the score does, however long that
    /// takes (a score that overruns the deadline is answered degraded, and
    /// one that runs past the watchdog limit has its shard replaced). A
    /// queued batch is waited for at most the deadline (plus
    /// scheduler noise).
    pub fn score(&self, req: ScoreRequest) -> ScoreReply {
        let slot = ReplySlot::for_caller(req.candidates.len(), self.cfg.deadline, &self.counters);
        self.submit(req, slot.clone());
        slot.wait()
    }

    /// Submits a batch whose reply frame the answering thread writes to
    /// `conn`. The returned slot is settled before the connection's next
    /// frame is handled.
    #[cfg(unix)]
    pub(crate) fn score_to(
        &self,
        req: ScoreRequest,
        conn: &Arc<std::os::unix::net::UnixStream>,
    ) -> ReplySlot {
        let slot =
            ReplySlot::for_conn(req.candidates.len(), self.cfg.deadline, &self.counters, conn);
        self.submit(req, slot.clone());
        slot
    }

    fn submit(&self, req: ScoreRequest, slot: ReplySlot) {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let inner = {
            let slot = lock_unpoisoned(&self.slots[self.route(&req.tenant)]);
            Arc::clone(&slot.inner)
        };
        inner.submit_score(req, slot);
    }

    /// The caller deadline.
    pub(crate) fn deadline(&self) -> Duration {
        self.cfg.deadline
    }

    fn each_shard<T>(&self, make: impl Fn() -> (Job, std::sync::mpsc::Receiver<T>)) -> Vec<T> {
        let mut receivers = Vec::new();
        for slot in self.slots.iter() {
            let inner = {
                let slot = lock_unpoisoned(slot);
                Arc::clone(&slot.inner)
            };
            let (job, rx) = make();
            inner.submit_control(job);
            receivers.push(rx);
        }
        receivers
            .into_iter()
            .filter_map(|rx| rx.recv_timeout(Duration::from_secs(10)).ok())
            .collect()
    }

    /// Checkpoints every dirty tenant now; returns records written.
    pub fn flush(&self) -> u64 {
        self.each_shard(|| {
            let (tx, rx) = sync_channel(1);
            (Job::Flush(tx), rx)
        })
        .into_iter()
        .sum()
    }

    /// `(tenant, checkpoint gen, weights digest)` for every live tenant,
    /// sorted by name. Drives the warm-start bit-exactness checks.
    pub fn tenant_digests(&self) -> Vec<(String, u64, u64)> {
        let mut all: Vec<(String, u64, u64)> = self
            .each_shard(|| {
                let (tx, rx) = sync_channel(1);
                (Job::Digests(tx), rx)
            })
            .into_iter()
            .flatten()
            .collect();
        all.sort();
        all
    }

    /// One flat JSONL counters snapshot (see `Counters::snapshot_jsonl`).
    pub fn snapshot(&self) -> String {
        self.counters.snapshot_jsonl(self.started.elapsed().as_millis() as u64)
    }

    /// Whether fine-grained span recording is active (the `observe`
    /// feature is compiled in AND `PPF_OBSERVE` turns `spans` on).
    pub fn profiling_active(&self) -> bool {
        self.prof_on
    }

    /// Attributes `ns` nanoseconds of request decoding to the daemon-level
    /// `decode` span. The socket server calls this; callers should gate on
    /// [`Daemon::profiling_active`] to keep the timing itself off the
    /// default path.
    pub fn record_decode_ns(&self, ns: u64) {
        self.decode_prof.record_ns(Span::Decode, ns);
    }

    /// The `OP_STATS` payload: the counters snapshot line first, then one
    /// span line per active span — daemon-level decode spans untagged,
    /// per-shard spans tagged `"shard":<idx>`. Span lines appear only when
    /// profiling is live; the counters line is always present, so the
    /// report is useful (and cheap) on a default build too.
    pub fn stats_report(&self) -> String {
        let mut out = self.snapshot();
        out.push('\n');
        out.push_str(&self.decode_prof.to_jsonl(None));
        for slot in self.slots.iter() {
            let inner = Arc::clone(&lock_unpoisoned(slot).inner);
            out.push_str(&inner.prof.to_jsonl(Some(inner.idx as u64)));
        }
        out
    }

    /// Appends a counters snapshot to `serve-<label>.jsonl` under
    /// [`ppf_sim::observe::export_dir`], iff `PPF_OBSERVE` turns
    /// `intervals` on — the same switch that arms the simulator's snapshot
    /// export. Returns the path written.
    #[cfg(feature = "observe")]
    pub fn export_snapshot(&self, label: &str) -> Option<PathBuf> {
        use ppf_sim::observe;
        use std::io::Write;
        if observe::from_env().interval == 0 {
            return None;
        }
        let dir = observe::export_dir();
        std::fs::create_dir_all(&dir).ok()?;
        let path = dir.join(format!("serve-{}.jsonl", observe::sanitize(label)));
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .ok()?;
        writeln!(f, "{}", self.snapshot()).ok()?;
        Some(path)
    }

    /// Flushes checkpoints and stops every thread. Consumes the daemon.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(sup) = self.supervisor.take() {
            let _ = sup.join();
        }
        self.flush();
        for slot in self.slots.iter() {
            let (inner, worker) = {
                let mut slot = lock_unpoisoned(slot);
                (Arc::clone(&slot.inner), slot.worker.take())
            };
            inner.submit_control(Job::Stop);
            inner.retire();
            self.watchdog.deregister(&inner.name);
            if let Some(w) = worker {
                let _ = w.join();
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Belt and braces for the panic path: retire workers so no thread
        // outlives the daemon spinning on an orphaned queue.
        self.stop.store(true, Ordering::Release);
        for slot in self.slots.iter() {
            lock_unpoisoned(slot).inner.retire();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Candidate;
    use ppf::FeatureInputs;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("ppf-serve-daemon-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn req(tenant: &str, i: u64) -> ScoreRequest {
        let addr = 0x2000_0000 + i * 64;
        ScoreRequest {
            tenant: tenant.into(),
            candidates: vec![Candidate {
                inputs: FeatureInputs {
                    trigger_addr: addr,
                    trigger_pc: 0x40_0000,
                    delta: 1,
                    ..FeatureInputs::default()
                },
                target: addr + 64,
            }],
            demands: if i.is_multiple_of(3) { vec![addr] } else { vec![] },
            evictions: vec![],
        }
    }

    #[test]
    fn scores_and_checkpoints_round_trip() {
        let dir = tmpdir("basic");
        let cfg = ServeConfig {
            checkpoint_dir: dir.clone(),
            checkpoint_every: 8,
            ..ServeConfig::default()
        };
        let daemon = Daemon::start(cfg.clone());
        assert_eq!(daemon.warm_started(), 0);
        for i in 0..40 {
            let reply = daemon.score(req("t000-a", i));
            assert_eq!(reply.decisions.len(), 1);
            assert!(!reply.degraded, "quiet fleet must not degrade");
        }
        daemon.flush();
        let digests = daemon.tenant_digests();
        assert_eq!(digests.len(), 1);
        daemon.shutdown();

        let daemon2 = Daemon::start(cfg);
        assert_eq!(daemon2.warm_started(), 1, "tenant restored from checkpoint");
        // A control query instantiates nothing; warm tenants materialize on
        // first request.
        let reply = daemon2.score(req("t000-a", 1000));
        assert!(!reply.degraded);
        let digests2 = daemon2.tenant_digests();
        assert_eq!(digests2[0].0, digests[0].0);
        daemon2.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn routing_is_stable_and_spreads() {
        let dir = tmpdir("route");
        let daemon = Daemon::start(ServeConfig {
            shards: 4,
            checkpoint_dir: dir.clone(),
            ..ServeConfig::default()
        });
        let mut hit = [false; 4];
        for i in 0..32 {
            let name = format!("t{i:03}-x");
            let a = daemon.route(&name);
            assert_eq!(a, daemon.route(&name));
            hit[a] = true;
        }
        assert!(hit.iter().filter(|h| **h).count() >= 2, "hash spreads tenants");
        daemon.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn supervisor_retirement_dumps_flight_recorder() {
        let dir = tmpdir("flight");
        let daemon = Daemon::start(ServeConfig {
            shards: 1,
            checkpoint_dir: dir.clone(),
            deadline: Duration::from_millis(50),
            watchdog_limit: Duration::from_millis(100),
            supervisor_poll: Duration::from_millis(20),
            faults: vec![FaultSpec::SlowShard { shard: 0, millis: 1500 }],
            ..ServeConfig::default()
        });
        // The injected stall (incarnation 0 only) swallows this request,
        // starves the heartbeat, and draws the supervisor's axe.
        let reply = daemon.score(req("t000-a", 0));
        assert!(reply.degraded, "stalled shard must fail open");
        let deadline = Instant::now() + Duration::from_secs(10);
        while daemon.counters().shard_replacements.load(Ordering::Relaxed) == 0 {
            assert!(Instant::now() < deadline, "supervisor never replaced the shard");
            std::thread::sleep(Duration::from_millis(20));
        }
        let jsonl = std::fs::read_to_string(dir.join("flight-shard0-inc0.jsonl"))
            .expect("flight dump written");
        let records = ppf_analysis::observe::parse_document(&jsonl).expect("valid flight dump");
        assert!(!records.is_empty(), "slow-inject event retained");
        assert!(records.iter().all(|r| r.kind() == ppf_analysis::Kind::Flight));
        let trace = std::fs::read_to_string(dir.join("flight-shard0-inc0.trace"))
            .expect("trace dump written");
        assert!(trace.contains("flight recorder:"));
        assert!(trace.contains("slow-inject"), "{trace}");
        // The replacement (incarnation 1) is cured: faults apply to
        // incarnation 0 only.
        let reply = daemon.score(req("t000-a", 1));
        assert!(!reply.degraded);
        daemon.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_parses_with_analysis_machinery() {
        let dir = tmpdir("snap");
        let daemon = Daemon::start(ServeConfig {
            checkpoint_dir: dir.clone(),
            ..ServeConfig::default()
        });
        daemon.score(req("t000-a", 0));
        let rec = ppf_analysis::observe::parse_line(&daemon.snapshot()).unwrap();
        assert_eq!(rec.kind(), ppf_analysis::Kind::Serve);
        assert_eq!(rec.get("requests"), Some(1.0));
        daemon.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
