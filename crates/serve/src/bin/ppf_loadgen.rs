//! `ppf_loadgen` — load generator and chaos-drill harness.
//!
//! Two modes:
//!
//! - `--drill`: boots an **in-process** fleet, injects the faults from
//!   `PPF_FAULT_INJECT` (strict parsing; malformed specs exit 2), drives
//!   a spike-paced multi-tenant replay through it, warm-restarts from the
//!   checkpoints, and prints a human summary plus one `drill` JSONL record
//!   (validated by `ppf_analysis::observe`). Exits 1 if the drill
//!   misses the acceptance bar (a stalled caller or an unexplained
//!   warm-start mismatch).
//! - `--connect <socket>`: replays against a running `ppf_serve` over its
//!   unix socket and reports p50/p99/max latency and degraded replies;
//!   `--stats` fetches the fleet's live counters and span tables
//!   (`OP_STATS`); `--shutdown` asks it to exit.
//!
//! ```text
//! PPF_FAULT_INJECT='tenant-panic:t001@5,checkpoint-bitflip:t002,slow-shard:1:1500,load-spike:10' \
//!     ppf_loadgen --drill --checkpoint-dir /tmp/drill-ckpt
//! ```

use std::path::PathBuf;
use std::time::Duration;

use ppf_serve::loadgen::{run_drill, silence_injected_panics, DrillConfig};

fn usage_exit() -> ! {
    eprintln!(
        "usage: ppf_loadgen --drill [--tenants N] [--duration-ms D] [--base-rate R] \
         [--checkpoint-dir DIR]\n       ppf_loadgen --connect <socket> [--requests N] \
         [--tenants N]\n       ppf_loadgen --stats <socket>\n       \
         ppf_loadgen --shutdown <socket>"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, v: Option<String>) -> T {
    let Some(v) = v else {
        eprintln!("error: {flag} needs a value");
        usage_exit();
    };
    v.parse().unwrap_or_else(|_| {
        eprintln!("error: invalid value {v:?} for {flag}");
        usage_exit();
    })
}

fn drill(cfg: DrillConfig) -> ! {
    silence_injected_panics();
    let report = run_drill(&cfg);
    println!(
        "drill: {} requests, p50 {}us, p99 {}us, max {}us",
        report.requests, report.p50_us, report.p99_us, report.max_us
    );
    println!(
        "drill: degraded {} (shed {}, deadline misses {}), tenant restarts {}, \
         shard replacements {}",
        report.degraded,
        report.shed,
        report.deadline_misses,
        report.tenant_restarts,
        report.shard_replacements
    );
    println!(
        "drill: checkpoints {} written ({} bit-flipped, {} dropped on load), \
         warm-start {} restored / {} matched / {} expected mismatches",
        report.checkpoint_records,
        report.checkpoint_bitflips,
        report.checkpoint_drops,
        report.warm_restored,
        report.warm_matched,
        report.warm_expected_mismatch
    );
    println!("{}", report.to_jsonl());
    if report.passed() {
        println!("drill: PASS (no stalled callers, warm start clean)");
        std::process::exit(0);
    }
    eprintln!(
        "drill: FAIL ({} stalled callers, {} unexplained warm-start mismatches)",
        report.stalled_callers, report.warm_unexplained_mismatch
    );
    std::process::exit(1);
}

#[cfg(unix)]
fn connect_mode(sock: &std::path::Path, requests: u64, tenants: usize) -> ! {
    use ppf_serve::loadgen::FeatureTracker;
    use ppf_serve::protocol::ScoreRequest;
    use ppf_trace::{MultiTenantReplay, Suite};

    let mut client = ppf_serve::server::Client::connect(sock).unwrap_or_else(|e| {
        eprintln!("error: cannot connect to {}: {e}", sock.display());
        std::process::exit(1);
    });
    let mut replay = MultiTenantReplay::new(Suite::Spec2017, tenants, 4, 0xC0FFEE);
    let names = replay.tenant_names();
    let mut trackers: Vec<FeatureTracker> = vec![FeatureTracker::default(); tenants];
    let mut lat = Vec::with_capacity(requests as usize);
    let mut degraded = 0u64;
    for _ in 0..requests {
        let mut candidates = Vec::with_capacity(4);
        let mut demands = Vec::new();
        let mut tenant = 0;
        for _ in 0..4 {
            let (idx, rec) = replay.next_event();
            tenant = idx;
            candidates.push(trackers[idx].observe(&rec));
            demands.push(rec.addr);
        }
        let req = ScoreRequest {
            tenant: names[tenant].clone(),
            candidates,
            demands,
            evictions: Vec::new(),
        };
        let start = std::time::Instant::now();
        match client.score(&req) {
            Ok(reply) => {
                degraded += u64::from(reply.degraded);
                lat.push(start.elapsed().as_micros() as u64);
            }
            Err(e) => {
                eprintln!("error: score failed: {e}");
                std::process::exit(1);
            }
        }
    }
    lat.sort_unstable();
    let pct = |q: f64| {
        if lat.is_empty() {
            0
        } else {
            lat[(((lat.len() as f64 * q).ceil() as usize).clamp(1, lat.len())) - 1]
        }
    };
    println!(
        "connect: {} requests, p50 {}us, p99 {}us, max {}us, degraded {}",
        lat.len(),
        pct(0.50),
        pct(0.99),
        lat.last().copied().unwrap_or(0),
        degraded
    );
    std::process::exit(0);
}

fn main() {
    let mut mode: Option<String> = None;
    let mut sock: Option<PathBuf> = None;
    let mut cfg = DrillConfig::default();
    let mut requests = 500u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--drill" => mode = Some("drill".into()),
            "--connect" => {
                mode = Some("connect".into());
                sock = Some(parse("--connect", args.next()));
            }
            "--stats" => {
                mode = Some("stats".into());
                sock = Some(parse("--stats", args.next()));
            }
            "--shutdown" => {
                mode = Some("shutdown".into());
                sock = Some(parse("--shutdown", args.next()));
            }
            "--tenants" => cfg.tenants = parse("--tenants", args.next()),
            "--duration-ms" => cfg.duration_ms = parse("--duration-ms", args.next()),
            "--base-rate" => cfg.base_rate = parse("--base-rate", args.next()),
            "--requests" => requests = parse("--requests", args.next()),
            "--checkpoint-dir" => {
                cfg.serve.checkpoint_dir = parse("--checkpoint-dir", args.next())
            }
            "--deadline-ms" => {
                cfg.serve.deadline = Duration::from_millis(parse("--deadline-ms", args.next()))
            }
            _ => {
                eprintln!("error: unknown argument {arg:?}");
                usage_exit();
            }
        }
    }
    // Strict at the binary boundary, mirroring --threads: a malformed
    // PPF_FAULT_INJECT must fail loudly, not silently drill nothing.
    cfg.serve.faults = ppf_sim::fault::specs_from_env_or_exit();

    match mode.as_deref() {
        Some("drill") => drill(cfg),
        #[cfg(unix)]
        Some("connect") => connect_mode(&sock.expect("set with --connect"), requests, cfg.tenants),
        #[cfg(unix)]
        Some("stats") => {
            let sock = sock.expect("set with --stats");
            let mut client = ppf_serve::server::Client::connect(&sock).unwrap_or_else(|e| {
                eprintln!("error: cannot connect to {}: {e}", sock.display());
                std::process::exit(1);
            });
            let report = client.stats().unwrap_or_else(|e| {
                eprintln!("error: stats failed: {e}");
                std::process::exit(1);
            });
            // Raw JSONL: the `serve` counters record, then `span` records
            // when the daemon runs with spans on.
            print!("{report}");
        }
        #[cfg(unix)]
        Some("shutdown") => {
            let sock = sock.expect("set with --shutdown");
            let mut client = ppf_serve::server::Client::connect(&sock).unwrap_or_else(|e| {
                eprintln!("error: cannot connect to {}: {e}", sock.display());
                std::process::exit(1);
            });
            client.shutdown().unwrap_or_else(|e| {
                eprintln!("error: shutdown failed: {e}");
                std::process::exit(1);
            });
            println!("daemon asked to shut down");
        }
        _ => usage_exit(),
    }
}
