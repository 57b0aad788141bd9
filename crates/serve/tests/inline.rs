//! The two scoring paths of a shard: inline, on the thread that submits a
//! request, and queued, on the shard's worker.
//!
//! Both must be the same single-threaded `TenantState` replay with
//! checkpoint barriers at the cadence: the same decisions, the same final
//! weights and generations, and the same checkpoint file, byte for byte.
//! An inline score that overruns its deadline must still be answered in
//! time: the supervisor answers it degraded, and replaces the shard only
//! once the score runs past the watchdog limit. A tenant's checkpoint
//! generations must reach the file in barrier order whatever mix of
//! queued appends and flushes carries them.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use ppf::Decision;
use ppf_serve::loadgen::FeatureTracker;
use ppf_serve::server::{serve_unix, Client};
use ppf_serve::{Daemon, ScoreRequest, ServeConfig, ShardCheckpoint, TenantState};
use ppf_sim::fault::FaultSpec;
use ppf_trace::{MultiTenantReplay, Suite};

const TENANTS: usize = 3;
const CADENCE: u64 = 8;
/// Per-tenant requests: five barriers each, and a dirty tail.
const PER_TENANT: usize = 44;

fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ppf-serve-inline-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn request_stream() -> Vec<ScoreRequest> {
    let mut replay = MultiTenantReplay::new(Suite::Spec2017, TENANTS, 4, 11);
    let names = replay.tenant_names();
    let mut trackers = vec![FeatureTracker::default(); TENANTS];
    let mut per_tenant = [0usize; TENANTS];
    let mut out = Vec::new();
    while per_tenant.iter().any(|&n| n < PER_TENANT) {
        let mut candidates = Vec::with_capacity(4);
        let mut demands = Vec::new();
        let mut tenant = 0;
        for _ in 0..4 {
            let (idx, rec) = replay.next_event();
            tenant = idx;
            candidates.push(trackers[idx].observe(&rec));
            demands.push(rec.addr);
        }
        if per_tenant[tenant] == PER_TENANT {
            continue;
        }
        per_tenant[tenant] += 1;
        out.push(ScoreRequest {
            tenant: names[tenant].clone(),
            candidates,
            demands,
            evictions: Vec::new(),
        });
    }
    out
}

/// What one path produced.
#[derive(Debug, PartialEq)]
struct Run {
    decisions: Vec<Vec<Decision>>,
    digests: Vec<(String, u64, u64)>,
    /// The checkpoint file as it stood once every request was answered.
    records: Vec<u8>,
}

/// Serves `reqs` in order through a one-shard daemon; returns what it
/// answered and how many requests it scored inline.
fn serve(dir: &Path, faults: Vec<FaultSpec>, reqs: &[ScoreRequest]) -> (Run, u64) {
    let daemon = Daemon::start(ServeConfig {
        shards: 1,
        checkpoint_dir: dir.to_path_buf(),
        checkpoint_every: CADENCE,
        deadline: Duration::from_secs(5),
        faults,
        ..ServeConfig::default()
    });
    let decisions = reqs
        .iter()
        .map(|r| {
            let reply = daemon.score(r.clone());
            assert!(!reply.degraded, "a quiet fleet never degrades");
            // `Digests` queues behind any append this request queued, so
            // waiting for it keeps the next barrier from replacing that
            // append (which it would if the disk fell a cadence behind).
            daemon.tenant_digests();
            reply.decisions
        })
        .collect();
    let digests = daemon.tenant_digests();
    let records = std::fs::read(dir.join("shard-0.jsonl")).unwrap();
    let inline = daemon.counters().inline_scores.load(Ordering::Relaxed);
    daemon.shutdown();
    (Run { decisions, digests, records }, inline)
}

/// The single-threaded reference: one `TenantState` per tenant, a barrier
/// whenever a tenant's cadence comes due, each appended to `dir`.
fn replay(dir: &Path, reqs: &[ScoreRequest]) -> Run {
    let store = ShardCheckpoint::new(dir, 0);
    let mut tenants: Vec<TenantState> = Vec::new();
    let mut decisions = Vec::new();
    for r in reqs {
        let t = match tenants.iter().position(|t| t.name == r.tenant) {
            Some(t) => t,
            None => {
                tenants.push(TenantState::fresh(&r.tenant));
                tenants.len() - 1
            }
        };
        let state = &mut tenants[t];
        decisions.push(state.process(r));
        if state.since_checkpoint >= CADENCE {
            let (gen, weights) = state.barrier();
            store.append(&state.name, gen, &weights, false).unwrap();
        }
    }
    let mut digests: Vec<(String, u64, u64)> =
        tenants.iter().map(|t| (t.name.clone(), t.gen, t.filter.weights_digest())).collect();
    digests.sort();
    Run { decisions, digests, records: std::fs::read(store.path()).unwrap() }
}

#[test]
fn inline_and_queued_paths_match_a_single_threaded_replay() {
    let reqs = request_stream();
    let n = reqs.len() as u64;
    let reference = replay(&tmpdir("replay"), &reqs);
    assert_eq!(reference.digests.len(), TENANTS);
    assert!(reference.digests.iter().all(|d| d.1 == PER_TENANT as u64 / CADENCE));

    // A sequential caller never finds a score queued: every request inline.
    let dir = tmpdir("all-inline");
    let (inline, scored_inline) = serve(&dir, Vec::new(), &reqs);
    assert_eq!(scored_inline, n, "every request scores on the caller's thread");
    assert_eq!(inline, reference, "inline path against the replay");

    // A slow-shard fault keeps the shard's scores on its worker; a
    // zero-millisecond stall changes nothing else.
    let dir2 = tmpdir("all-queued");
    let (queued, scored_inline) =
        serve(&dir2, vec![FaultSpec::SlowShard { shard: 0, millis: 0 }], &reqs);
    assert_eq!(scored_inline, 0, "a slow-shard fault forbids inline scores");
    assert_eq!(queued, reference, "queued path against the replay");

    for d in [dir, dir2, tmpdir("replay")] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// Holds the thread that hit an injected panic for `STUCK` before it
/// unwinds: a score stuck on its submitting thread.
const STUCK: Duration = Duration::from_millis(600);

/// Serves tenant t000 over a socket from a one-shard daemon whose second
/// t000 request is held for `STUCK` on the connection thread that scores
/// it. Returns how long the client waited for that reply, and the shard
/// replacements, deadline misses and inline scores at the end.
fn stuck_inline_score(dir: &Path, watchdog_limit: Duration) -> (Duration, [u64; 3]) {
    let sock = dir.join("s.sock");
    let daemon = Daemon::start(ServeConfig {
        shards: 1,
        checkpoint_dir: dir.join("ckpt"),
        deadline: Duration::from_millis(50),
        watchdog_limit,
        supervisor_poll: Duration::from_millis(10),
        faults: vec![FaultSpec::TenantPanic { pat: "t000".into(), nth: 2 }],
        ..ServeConfig::default()
    });
    let server = {
        let sock = sock.clone();
        std::thread::spawn(move || serve_unix(daemon, &sock))
    };
    let mut client = loop {
        match Client::connect(&sock) {
            Ok(c) => break c,
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    };
    let reqs = request_stream();
    let t000: Vec<&ScoreRequest> = reqs.iter().filter(|r| r.tenant.starts_with("t000")).collect();
    assert!(!client.score(t000[0]).unwrap().degraded);

    // The second request panics on the connection thread, which then sits
    // in the panic hook, holding the shard's tenants: the supervisor must
    // write the degraded reply to the socket at about the deadline.
    let t0 = Instant::now();
    let reply = client.score(t000[1]).unwrap();
    let waited = t0.elapsed();
    assert!(reply.degraded, "an overdue inline score fails open");

    // The tenant serves again once the stuck thread lets go: rebuilt on
    // the same shard, or warm started on its replacement.
    assert!(!client.score(t000[2]).unwrap().degraded);
    client.shutdown().unwrap();
    let daemon = server.join().unwrap().unwrap();
    let c = daemon.counters();
    let counts = [&c.shard_replacements, &c.deadline_misses, &c.inline_scores]
        .map(|a| a.load(Ordering::Relaxed));
    daemon.shutdown();
    (waited, counts)
}

#[test]
fn supervisor_answers_an_overrunning_inline_score_and_retires_only_a_stuck_shard() {
    std::panic::set_hook(Box::new(|info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.contains("injected tenant fault"));
        if injected {
            std::thread::sleep(STUCK);
        } else {
            eprintln!("{info}");
        }
    }));
    // Past the deadline but within the watchdog limit: the slot is
    // answered degraded, and the shard keeps its tenants.
    let dir = tmpdir("overrun");
    let (waited, [replacements, misses, inline]) =
        stuck_inline_score(&dir, Duration::from_secs(5));
    assert!(waited < STUCK / 2, "answered at the deadline, not after the stall: {waited:?}");
    assert_eq!((replacements, misses, inline), (0, 1, 3));

    // Past the watchdog limit as well: the shard is replaced, and the
    // replacement (incarnation 1) serves the tenant.
    let dir2 = tmpdir("stuck");
    let (waited, [replacements, misses, inline]) =
        stuck_inline_score(&dir2, Duration::from_millis(200));
    assert!(waited < STUCK / 2, "answered at the deadline, not after the stall: {waited:?}");
    assert_eq!((replacements, misses, inline), (1, 1, 3));
    let _ = std::panic::take_hook();
    for d in [dir, dir2] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn a_flush_behind_a_queued_barrier_leaves_the_newest_generation_on_file() {
    // Every score waits STALL on the worker, so jobs submitted meanwhile
    // queue up behind it in submission order.
    const STALL: Duration = Duration::from_millis(200);
    let dir = tmpdir("flush-order");
    let daemon = Daemon::start(ServeConfig {
        shards: 1,
        checkpoint_dir: dir.clone(),
        checkpoint_every: 2,
        deadline: Duration::from_secs(5),
        watchdog_limit: Duration::from_secs(10),
        faults: vec![FaultSpec::SlowShard { shard: 0, millis: STALL.as_millis() as u64 }],
        ..ServeConfig::default()
    });
    let reqs = request_stream();
    let mine: Vec<&ScoreRequest> = reqs.iter().filter(|r| r.tenant.starts_with("t000")).collect();
    assert!(!daemon.score(mine[0].clone()).degraded);
    // The queue becomes [score a, score b, Flush]. Scoring `a` takes the
    // tenant's barrier (gen 1) and queues its append behind the `Flush`;
    // `b` dirties the tenant again, and the `Flush` writes gen 2.
    std::thread::scope(|s| {
        let daemon = &daemon;
        for (i, r) in mine[1..3].iter().enumerate() {
            s.spawn(move || {
                std::thread::sleep(STALL / 8 * i as u32);
                assert!(!daemon.score((*r).clone()).degraded);
            });
        }
        std::thread::sleep(STALL / 2);
        daemon.flush();
    });
    // `Digests` queues behind the barrier's append, so that has run too.
    let digests = daemon.tenant_digests();
    assert_eq!(digests.len(), 1);
    assert_eq!(digests[0].1, 2, "a barrier and a flush: {digests:?}");
    let on_file = ShardCheckpoint::new(&dir, 0).load().tenants;
    let last = &on_file[&digests[0].0];
    let warm = TenantState::warm(&digests[0].0, last.gen, &last.weights).unwrap();
    assert_eq!(
        (last.gen, warm.filter.weights_digest()),
        (digests[0].1, digests[0].2),
        "the file's last record is the tenant's live state"
    );
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_callers_on_one_shard_each_get_their_tenants_replay() {
    // One caller thread per tenant, all on one shard: requests race for the
    // inline path and the queue, but each tenant's requests arrive in order,
    // so every reply must be that tenant's own single-threaded replay.
    let reqs = request_stream();
    let dir = tmpdir("concurrent");
    let daemon = Daemon::start(ServeConfig {
        shards: 1,
        checkpoint_dir: dir.clone(),
        checkpoint_every: CADENCE,
        deadline: Duration::from_secs(5),
        ..ServeConfig::default()
    });
    let names: Vec<&str> = {
        let mut n: Vec<&str> = reqs.iter().map(|r| r.tenant.as_str()).collect();
        n.sort_unstable();
        n.dedup();
        n
    };
    const ROUNDS: usize = 200;
    std::thread::scope(|s| {
        for name in &names {
            let mine: Vec<&ScoreRequest> = reqs.iter().filter(|r| r.tenant == *name).collect();
            let daemon = &daemon;
            s.spawn(move || {
                let mut state = TenantState::fresh(name);
                for round in 0..ROUNDS {
                    for r in &mine {
                        let reply = daemon.score((*r).clone());
                        assert!(!reply.degraded, "{name} round {round}: degraded");
                        assert_eq!(reply.decisions, state.process(r), "{name} round {round}");
                        if state.since_checkpoint >= CADENCE {
                            state.barrier();
                        }
                    }
                }
            });
        }
    });
    let c = daemon.counters();
    assert_eq!(c.requests.load(Ordering::Relaxed), (ROUNDS * reqs.len()) as u64);
    assert!(c.inline_scores.load(Ordering::Relaxed) > 0);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
