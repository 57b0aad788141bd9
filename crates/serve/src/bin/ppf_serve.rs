//! `ppf_serve` — the filter-fleet daemon binary.
//!
//! Boots a multi-tenant PPF fleet, warm-starting every tenant found in
//! the checkpoint directory, and serves the length-prefixed protocol on a
//! unix socket until a shutdown frame arrives (`ppf_loadgen --shutdown`).
//!
//! ```text
//! ppf_serve --listen /tmp/ppf.sock [--shards N] [--deadline-ms D]
//!           [--checkpoint-dir DIR] [--checkpoint-every K]
//! ```
//!
//! `PPF_FAULT_INJECT` (strict: malformed specs exit 2) injects chaos —
//! see `ppf_sim::fault` for the grammar. On exit the counters snapshot
//! is appended to `serve-daemon.jsonl` under `PPF_OBSERVE_DIR` when built
//! with the `observe` feature and run with `PPF_OBSERVE=intervals`, like
//! every other tool here.

use std::path::PathBuf;
use std::time::Duration;

use ppf_serve::daemon::{Daemon, ServeConfig};

fn usage_exit() -> ! {
    eprintln!(
        "usage: ppf_serve --listen <socket> [--shards N] [--deadline-ms D] \
         [--checkpoint-dir DIR] [--checkpoint-every K] [--queue-capacity Q] \
         [--tenant-quota T]"
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

fn main() {
    let mut listen: Option<PathBuf> = None;
    let mut cfg = ServeConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => listen = Some(parse("--listen", args.next())),
            "--shards" => cfg.shards = parse("--shards", args.next()),
            "--deadline-ms" => {
                cfg.deadline = Duration::from_millis(parse("--deadline-ms", args.next()))
            }
            "--checkpoint-dir" => {
                cfg.checkpoint_dir = parse("--checkpoint-dir", args.next())
            }
            "--checkpoint-every" => {
                cfg.checkpoint_every = parse("--checkpoint-every", args.next())
            }
            "--queue-capacity" => {
                cfg.queue_capacity = parse("--queue-capacity", args.next())
            }
            "--tenant-quota" => cfg.tenant_quota = parse("--tenant-quota", args.next()),
            _ => {
                eprintln!("error: unknown argument {arg:?}");
                usage_exit();
            }
        }
    }
    // Strict at the binary boundary: a typo'd fault spec must not silently
    // run a drill with no faults.
    cfg.faults = ppf_sim::fault::specs_from_env_or_exit();

    #[cfg(not(unix))]
    {
        eprintln!("error: the socket front end requires unix domain sockets");
        std::process::exit(2);
    }
    #[cfg(unix)]
    {
        let Some(listen) = listen else {
            eprintln!("error: --listen is required");
            usage_exit();
        };
        let daemon = Daemon::start(cfg);
        println!("warm-start: {} tenants restored", daemon.warm_started());
        println!("listening on {}", listen.display());
        match ppf_serve::server::serve_unix(daemon, &listen) {
            Ok(daemon) => {
                #[cfg(feature = "observe")]
                daemon.export_snapshot("daemon");
                println!("final: {}", daemon.snapshot());
                daemon.shutdown();
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
}
