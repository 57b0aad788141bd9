//! The `serve-sock` workload: an in-process `Daemon` served over
//! `serve_unix`, driven by two closed-loop `Client`s with no think time.
//!
//! Requests are generated in set-up from `MultiTenantReplay` plus one
//! `FeatureTracker` per tenant: 8 tenants, 8 candidates per request, each
//! client owning a disjoint half of the tenants and cycling through them.
//! No simulator runs; the work is filter scoring, framing, shard hand-off
//! and checkpoint fsync. Every reply is checked against a single-threaded
//! `TenantState` replay of the same streams with checkpoint barriers at the
//! daemon's cadence, and the replay's final weights against
//! `Daemon::tenant_digests()`.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ppf::Decision;
use ppf_serve::loadgen::FeatureTracker;
use ppf_serve::protocol::{decode_reply, decode_score, encode_reply, encode_score, read_frame};
use ppf_serve::server::{serve_unix, Client};
use ppf_serve::{Daemon, ScoreReply, ScoreRequest, ServeConfig, ShardCheckpoint, TenantState};
use ppf_trace::{MultiTenantReplay, Suite};

use crate::report::{
    fnv1a, median, metric, peak_rss_mb, process_cpu_seconds, quantile, Layers, Outcome,
};

const TENANTS: usize = 8;
const CLIENTS: usize = 2;
const CANDIDATES: usize = 8;
/// Requests generated per tenant; a client that sends more cycles through
/// them again (the replay follows, so the check still holds).
const POOL: usize = 2048;
/// Checkpoint barrier cadence, in score requests per tenant. The daemon's
/// default is 32, which writes a full weight snapshot (~18 KB) with
/// `sync_all` every 32 requests: ~200 MB and ~11k fsyncs per 50-s run. On
/// the reference host's virtual disk that throttled after a few runs, and
/// ten back-to-back runs fell from 10.2k to 4.4k requests/s. At 1024 the
/// disk stays out of the way, and checkpoints still happen, less often.
const CHECKPOINT_EVERY: u64 = 1024;
/// Caller deadline and shard watchdog limit. The defaults (100 ms and
/// 500 ms) are tuned for chaos drills: on a shared 2-vCPU host a
/// descheduled shard or a slow fsync now and then outlasts them, and the
/// few degraded replies that follow come and go from run to run. With
/// limits far above any stall the host produces, a degraded reply or a
/// retired shard in this fault-free workload is a fault of the program.
const DEADLINE: Duration = Duration::from_secs(10);
const WATCHDOG_LIMIT: Duration = Duration::from_secs(30);
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// FNV-1a over every generated request frame at the default seed.
const POOL_DIGEST: u64 = 0xa469_ef79_772e_11ac;

/// Scratch space for checkpoints and the socket, inside the working
/// directory and removed when the run ends.
fn run_dir() -> PathBuf {
    PathBuf::from(".bench_run").join(format!("serve-{}", std::process::id()))
}

struct Pool {
    names: Vec<String>,
    requests: Vec<Vec<ScoreRequest>>,
    /// Time spent pulling trace records, and how many (traced runs only).
    trace_ns: u64,
    records: u64,
}

fn generate(seed: u64, timed: bool) -> Pool {
    let mut replay = MultiTenantReplay::new(Suite::Spec2017, TENANTS, CANDIDATES, seed);
    let names = replay.tenant_names();
    let mut trackers = vec![FeatureTracker::default(); TENANTS];
    let mut requests: Vec<Vec<ScoreRequest>> =
        (0..TENANTS).map(|_| Vec::with_capacity(POOL)).collect();
    let mut open: Vec<ScoreRequest> = names
        .iter()
        .map(|n| ScoreRequest {
            tenant: n.clone(),
            candidates: Vec::new(),
            demands: Vec::new(),
            evictions: Vec::new(),
        })
        .collect();
    let (mut trace_ns, mut records) = (0, 0);
    while requests.iter().any(|r| r.len() < POOL) {
        let t0 = timed.then(Instant::now);
        let (idx, rec) = replay.next_event();
        if let Some(t0) = t0 {
            trace_ns += t0.elapsed().as_nanos() as u64;
            records += 1;
        }
        if requests[idx].len() == POOL {
            continue;
        }
        let req = &mut open[idx];
        req.candidates.push(trackers[idx].observe(&rec));
        req.demands.push(rec.addr);
        if req.candidates.len() == CANDIDATES {
            let full = ScoreRequest {
                tenant: req.tenant.clone(),
                candidates: std::mem::take(&mut req.candidates),
                demands: std::mem::take(&mut req.demands),
                evictions: Vec::new(),
            };
            requests[idx].push(full);
        }
    }
    Pool {
        names,
        requests,
        trace_ns,
        records,
    }
}

/// Tenants client `c` owns, in the order it cycles through them.
fn owned(c: usize) -> Vec<usize> {
    (c..TENANTS).step_by(CLIENTS).collect()
}

/// The `k`-th request a client owning `mine` sends: (tenant, request).
fn nth_request<'a>(pool: &'a Pool, mine: &[usize], k: usize) -> (usize, &'a ScoreRequest) {
    let tenant = mine[k % mine.len()];
    (tenant, &pool.requests[tenant][(k / mine.len()) % POOL])
}

struct Fleet {
    server: JoinHandle<std::io::Result<Daemon>>,
    clients: Vec<Client>,
}

fn start_fleet(dir: &Path) -> Result<Fleet, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let cfg = ServeConfig {
        checkpoint_dir: dir.join("ckpt"),
        checkpoint_every: CHECKPOINT_EVERY,
        deadline: DEADLINE,
        watchdog_limit: WATCHDOG_LIMIT,
        ..ServeConfig::default()
    };
    let daemon = Daemon::start(cfg);
    if daemon.warm_started() != 0 {
        return Err(format!(
            "daemon warm-started {} tenants from a stale checkpoint",
            daemon.warm_started()
        ));
    }
    let sock = dir.join("s.sock");
    let server = {
        let sock = sock.clone();
        std::thread::spawn(move || serve_unix(daemon, &sock))
    };
    let give_up = Instant::now() + Duration::from_secs(10);
    let mut clients = Vec::with_capacity(CLIENTS);
    while clients.len() < CLIENTS {
        match Client::connect(&sock) {
            Ok(c) => clients.push(c),
            Err(e) if server.is_finished() || Instant::now() > give_up => {
                return Err(format!(
                    "cannot reach the daemon at {}: {e}",
                    sock.display()
                ))
            }
            Err(_) => std::thread::sleep(Duration::from_micros(50)),
        }
    }
    Ok(Fleet { server, clients })
}

/// Closes the clients and returns the daemon, still running its shards.
fn stop_serving(mut fleet: Fleet) -> Result<Daemon, String> {
    let mut first = fleet.clients.remove(0);
    drop(fleet.clients);
    first
        .shutdown()
        .map_err(|e| format!("shutdown frame: {e}"))?;
    drop(first);
    fleet
        .server
        .join()
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| format!("serve_unix: {e}"))
}

/// Requests each client can log: room for 30k requests/s per client over
/// a 50-s run. The log is reserved and touched before the run, so the
/// harness's own memory does not grow with throughput and `peak_rss_mb`
/// follows the daemon; a client whose log fills stops early.
const LOG_CAP: usize = 1_500_000;
/// Width of the windows the load phase is judged in.
const WINDOW: Duration = Duration::from_secs(1);

/// What one client saw, one slot per request.
struct ClientLog {
    /// Caller-observed latency from `Client::score` call to decoded reply.
    latency_ns: Vec<u32>,
    /// The reply, packed by [`pack`].
    replies: Vec<u32>,
    /// `marks[w]`: requests completed before window `w` began.
    marks: Vec<usize>,
    len: usize,
    io_errors: u64,
}

impl ClientLog {
    fn reserve() -> Self {
        // Non-zero fill, so every page is written now rather than mid-run.
        let slots = || vec![u32::MAX; LOG_CAP];
        Self {
            latency_ns: slots(),
            replies: slots(),
            marks: vec![0],
            len: 0,
            io_errors: 0,
        }
    }

    /// Requests of whole window `w`.
    fn window(&self, w: usize) -> std::ops::Range<usize> {
        self.marks[w]..self.marks[w + 1]
    }
}

const DEGRADED: u32 = 1 << 31;
const MALFORMED: u32 = 1 << 30;

/// A reply as one word: 2 bits per decision in wire order, plus flags.
fn pack(reply: &ScoreReply) -> u32 {
    let mut word = if reply.degraded { DEGRADED } else { 0 };
    if reply.decisions.len() != CANDIDATES {
        word |= MALFORMED;
    }
    for (i, d) in reply.decisions.iter().take(CANDIDATES).enumerate() {
        let code = match d {
            Decision::Reject => 0,
            Decision::PrefetchLlc => 1,
            Decision::PrefetchL2 => 2,
        };
        word |= code << (2 * i);
    }
    word
}

/// Runs the clients for `budget`; returns their logs and the CPU seconds
/// the process used meanwhile.
fn drive(pool: &Pool, fleet: &mut Fleet, budget: Duration) -> (Vec<ClientLog>, f64) {
    let barrier = Barrier::new(CLIENTS + 1);
    let mut logs: Vec<ClientLog> = (0..CLIENTS).map(|_| ClientLog::reserve()).collect();
    let cpu_start = std::thread::scope(|s| {
        for (c, (client, log)) in fleet.clients.iter_mut().zip(logs.iter_mut()).enumerate() {
            let barrier = &barrier;
            s.spawn(move || {
                let mine = owned(c);
                barrier.wait();
                let start = Instant::now();
                while log.len < LOG_CAP && start.elapsed() < budget {
                    let (_, req) = nth_request(pool, &mine, log.len);
                    let t0 = Instant::now();
                    let Ok(reply) = client.score(req) else {
                        log.io_errors += 1;
                        break;
                    };
                    let k = log.len;
                    log.latency_ns[k] = u32::try_from(t0.elapsed().as_nanos()).unwrap_or(u32::MAX);
                    log.replies[k] = pack(&reply);
                    log.len += 1;
                    let done = start.elapsed();
                    while WINDOW * log.marks.len() as u32 <= done {
                        log.marks.push(k);
                    }
                }
            });
        }
        barrier.wait();
        process_cpu_seconds()
    });
    (logs, process_cpu_seconds() - cpu_start)
}

/// Load-phase figures over the busiest quarter of the run's whole
/// windows. A closed loop's rate and latency follow the host: on the
/// shared 2-vCPU reference host, socket hand-offs and fsync slowed by up
/// to 2x for stretches of many seconds, so the quietest part of a run is
/// what repeats from run to run. Every request still counts in `failed`.
struct LoadStats {
    rate: f64,
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
    samples: usize,
    windows: usize,
}

fn load_stats(logs: &[ClientLog]) -> LoadStats {
    // The last window of each client is cut short by the deadline.
    let whole = logs.iter().map(|l| l.marks.len() - 1).min().unwrap_or(0);
    let ok_in = |w: usize| -> u64 {
        logs.iter()
            .map(|l| {
                l.replies[l.window(w)]
                    .iter()
                    .filter(|&&r| r & DEGRADED == 0)
                    .count() as u64
            })
            .sum()
    };
    let mut ranked: Vec<(u64, usize)> = (0..whole).map(|w| (ok_in(w), w)).collect();
    ranked.sort_unstable_by(|a, b| b.cmp(a));
    let busiest = &ranked[..whole.div_ceil(4)];
    let mut lat_us: Vec<f64> = busiest
        .iter()
        .flat_map(|&(_, w)| logs.iter().flat_map(move |l| &l.latency_ns[l.window(w)]))
        .map(|&ns| f64::from(ns) / 1e3)
        .collect();
    LoadStats {
        rate: busiest.iter().map(|&(ok, _)| ok).sum::<u64>() as f64
            / (busiest.len() as f64 * WINDOW.as_secs_f64()),
        samples: lat_us.len(),
        p50_us: quantile(&mut lat_us, 0.5),
        p90_us: quantile(&mut lat_us, 0.9),
        p99_us: quantile(&mut lat_us, 0.99),
        windows: busiest.len(),
    }
}

/// What a replay found and, when timed, where its time went.
#[derive(Default)]
struct Replay {
    /// Requests whose decisions differ from the daemon's reply.
    mismatches: u64,
    /// `(tenant, gen, weights digest)`, sorted by tenant.
    digests: Vec<(String, u64, u64)>,
    wall_ns: u64,
    codec_ns: u64,
    score_ns: u64,
    checkpoint_ns: u64,
    checkpoints: u64,
    requests: u64,
    candidates: u64,
    accepted: u64,
}

fn timed<R>(on: bool, acc: &mut u64, f: impl FnOnce() -> R) -> R {
    if on {
        let t0 = Instant::now();
        let r = f();
        *acc += t0.elapsed().as_nanos() as u64;
        r
    } else {
        f()
    }
}

/// Replays every request the clients sent, single-threaded, through the
/// codec and `TenantState`, with checkpoint barriers at the daemon's
/// cadence. With `store`, each barrier is also appended to its shard's
/// checkpoint file there, as the daemon does; with `on`, each step is
/// timed.
fn replay(
    pool: &Pool,
    logs: &[ClientLog],
    shards: &[usize],
    store: Option<&Path>,
    on: bool,
) -> Result<Replay, String> {
    let stores: Vec<Option<ShardCheckpoint>> = shards
        .iter()
        .map(|&s| store.map(|dir| ShardCheckpoint::new(dir, s)))
        .collect();
    let mut tenants: Vec<TenantState> = pool.names.iter().map(|n| TenantState::fresh(n)).collect();
    let mut r = Replay::default();
    let start = Instant::now();
    for (c, log) in logs.iter().enumerate() {
        let mine = owned(c);
        for k in 0..log.len {
            let (t, req) = nth_request(pool, &mine, k);
            let state = &mut tenants[t];
            let decoded = timed(on, &mut r.codec_ns, || {
                let frame = encode_score(req);
                read_frame(&mut frame.as_slice())
                    .ok()
                    .flatten()
                    .ok_or("empty frame")
                    .and_then(|p| decode_score(&p).map_err(|_| "bad score frame"))
            })?;
            let decisions = timed(on, &mut r.score_ns, || state.process(&decoded));
            let reply = timed(on, &mut r.codec_ns, || {
                let frame = encode_reply(&ScoreReply {
                    degraded: false,
                    decisions,
                });
                read_frame(&mut frame.as_slice())
                    .ok()
                    .flatten()
                    .ok_or("empty frame")
                    .and_then(|p| decode_reply(&p).map_err(|_| "bad reply frame"))
            })?;
            if pack(&reply) != log.replies[k] {
                r.mismatches += 1;
            }
            r.requests += 1;
            r.candidates += reply.decisions.len() as u64;
            r.accepted += reply
                .decisions
                .iter()
                .filter(|d| **d != Decision::Reject)
                .count() as u64;
            if state.since_checkpoint >= CHECKPOINT_EVERY {
                // Always timed: fsync time swings widely, and the overhead
                // of tracing is measured on the rest of the replay.
                timed(true, &mut r.checkpoint_ns, || {
                    let (gen, weights) = state.barrier();
                    match &stores[t] {
                        Some(s) => s
                            .append(&state.name, gen, &weights, false)
                            .map_err(|e| format!("checkpoint append: {e}")),
                        None => Ok(()),
                    }
                })?;
                r.checkpoints += 1;
            }
        }
    }
    r.wall_ns = start.elapsed().as_nanos() as u64;
    r.digests = tenants
        .iter()
        .map(|t| (t.name.clone(), t.gen, t.filter.weights_digest()))
        .collect();
    r.digests.sort();
    Ok(r)
}

pub fn run(seed: u64, budget: Duration, trace: bool) -> Result<Outcome, String> {
    let dir = run_dir();
    let result = run_in(&dir, seed, budget, trace);
    let _ = std::fs::remove_dir_all(&dir);
    if std::fs::read_dir(".bench_run").is_ok_and(|mut d| d.next().is_none()) {
        let _ = std::fs::remove_dir(".bench_run");
    }
    result
}

fn run_in(dir: &Path, seed: u64, budget: Duration, trace: bool) -> Result<Outcome, String> {
    // Request pre-generation is set-up work users would not repeat, so it
    // stays out of `setup_s`.
    let pool = generate(seed, trace);
    let frame_digests: Vec<u8> = pool
        .requests
        .iter()
        .flatten()
        .flat_map(|r| fnv1a(&encode_score(r)).to_le_bytes())
        .collect();
    let pool_digest = fnv1a(&frame_digests);

    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut fleet = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let f = start_fleet(&dir.join(format!("fleet{rep}")))?;
        setup.push(t0.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            stop_serving(f)?.shutdown();
        } else {
            fleet = Some(f);
        }
    }
    let mut fleet = fleet.expect("at least one set-up");

    let (logs, cpu_s) = drive(&pool, &mut fleet, if trace { budget / 2 } else { budget });
    let daemon = stop_serving(fleet)?;
    let daemon_digests = daemon.tenant_digests();
    let counters = daemon.counters();
    let (candidates, accepted) = (
        counters.candidates.load(Ordering::Relaxed),
        counters.accepted.load(Ordering::Relaxed),
    );
    let (deadline_misses, replacements) = (
        counters.deadline_misses.load(Ordering::Relaxed),
        counters.shard_replacements.load(Ordering::Relaxed),
    );
    let shards: Vec<usize> = pool.names.iter().map(|n| daemon.route(n)).collect();
    daemon.shutdown();

    let oracle = replay(&pool, &logs, &shards, None, false)?;
    let sent: u64 = logs.iter().map(|l| l.len as u64 + l.io_errors).sum();
    let degraded: u64 = logs
        .iter()
        .flat_map(|l| &l.replies[..l.len])
        .filter(|&&w| w & DEGRADED != 0)
        .count() as u64;
    let io_errors: u64 = logs.iter().map(|l| l.io_errors).sum();
    let tenant_mismatch = oracle
        .digests
        .iter()
        .zip(&daemon_digests)
        .filter(|(a, b)| a != b)
        .count() as u64
        + oracle.digests.len().abs_diff(daemon_digests.len()) as u64;

    let mut outcome = Outcome {
        attempted: sent,
        ..Outcome::default()
    };
    outcome.failed = (oracle.mismatches + io_errors + tenant_mismatch).min(sent);
    outcome.notes.push(format!(
        "request pool digest {pool_digest:#018x} (seed {seed})"
    ));
    let mut correct = oracle.mismatches == degraded && tenant_mismatch == 0 && io_errors == 0;
    if seed == crate::DEFAULT_SEED && pool_digest != POOL_DIGEST {
        outcome.notes.push(format!(
            "MISMATCH: recorded pool digest at the default seed is {POOL_DIGEST:#018x}"
        ));
        outcome.failed = sent;
        correct = false;
    }
    outcome.notes.push(format!(
        "{sent} requests: {degraded} degraded ({deadline_misses} deadline misses, \
         {replacements} shard replacements), {} replies differ from the replay, \
         {tenant_mismatch} tenant digests differ",
        oracle.mismatches - degraded.min(oracle.mismatches)
    ));

    let load = load_stats(&logs);
    let p50 = load.p50_us;
    // Replies per CPU-second of the whole process: waiting on the host's
    // wake-ups costs no CPU, and on the reference host it was what made
    // wall-clock rates swing between 27k and 40k requests/s from run to
    // run; replies per CPU-second stayed within a few percent.
    let per_cpu_s = (sent - degraded - io_errors) as f64 / cpu_s;
    outcome.notes.push(format!(
        "serve_req_per_s {:.1} 1/s, serve_p50_us {p50:.3} us, serve_p90_us {:.3} us, serve_p99_us {:.3} us: \
         {} samples in the busiest {} s; {per_cpu_s:.1} replies per CPU-second over {cpu_s:.2} CPU-s",
        load.rate, load.p90_us, load.p99_us, load.samples, load.windows
    ));
    outcome.end_to_end = vec![
        metric("ops_per_cpu_s", per_cpu_s, "1/s"),
        metric("op_p50_us", p50, "us"),
        metric("op_p90_us", load.p90_us, "us"),
        metric("setup_s", median(&mut setup), "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ];

    if trace {
        let plain = replay(
            &pool,
            &logs,
            &shards,
            Some(&dir.join("replay-plain")),
            false,
        )?;
        let traced = replay(
            &pool,
            &logs,
            &shards,
            Some(&dir.join("replay-traced")),
            true,
        )?;
        if traced.digests != oracle.digests
            || traced.mismatches != oracle.mismatches
            || plain.digests != oracle.digests
        {
            outcome
                .notes
                .push("MISMATCH: the traced replay differs from the untraced one".into());
            correct = false;
        }
        let named = traced.codec_ns + traced.score_ns + traced.checkpoint_ns;
        if named > traced.wall_ns {
            outcome.notes.push(format!(
                "LAYER TIME EXCEEDS WALL: {named} ns against {} ns",
                traced.wall_ns
            ));
            correct = false;
        }
        let per_req = |ns: u64| ns as f64 / 1e3 / traced.requests as f64;
        outcome.layer = Layers {
            trace_ns_per_record: pool.trace_ns as f64 / pool.records as f64,
            trace_records: pool.records as f64,
            ppf_ns_per_cand: traced.score_ns as f64 / traced.candidates as f64,
            ppf_accept_ratio: traced.accepted as f64 / traced.candidates as f64,
            serve_codec_us: per_req(traced.codec_ns),
            serve_score_us: per_req(traced.score_ns),
            serve_checkpoint_us: traced.checkpoint_ns as f64 / 1e3 / traced.checkpoints as f64,
            serve_checkpoints: traced.checkpoints as f64,
            serve_hop_us: p50 - per_req(traced.codec_ns + traced.score_ns),
            serve_accept_ratio: accepted as f64 / candidates as f64,
            trace_overhead: (traced.wall_ns - traced.checkpoint_ns) as f64
                / (plain.wall_ns - plain.checkpoint_ns) as f64
                - 1.0,
            ..Layers::default()
        }
        .metrics();
    }
    outcome.correct = correct;
    Ok(outcome)
}
