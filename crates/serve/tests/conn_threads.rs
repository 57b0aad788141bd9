//! A closed connection must not keep its thread's stack until the daemon
//! exits. This is the only test in its binary, because it reads the
//! process's virtual size, which other tests' threads would move.

use std::time::{Duration, Instant};

use ppf_serve::daemon::{Daemon, ServeConfig};
use ppf_serve::server::{serve_unix, Client};

/// The process's virtual size in kB, from `/proc/self/status`.
fn vm_size_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmSize:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmSize line")
}

#[test]
fn short_connections_do_not_accumulate_thread_stacks() {
    let dir = std::env::temp_dir().join(format!("ppf-serve-conns-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("s.sock");
    let cfg = ServeConfig { checkpoint_dir: dir.join("ckpt"), ..ServeConfig::default() };
    let server = {
        let sock = sock.clone();
        std::thread::spawn(move || serve_unix(Daemon::start(cfg), &sock).expect("serve"))
    };
    let give_up = Instant::now() + Duration::from_secs(10);
    let cycle = || loop {
        match Client::connect(&sock) {
            Ok(mut c) => break c.ping().expect("ping"),
            Err(e) => {
                assert!(Instant::now() < give_up, "daemon never bound: {e}");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    };
    cycle();
    let before = vm_size_kb();
    for _ in 0..100 {
        cycle();
    }
    let grown_mb = vm_size_kb().saturating_sub(before) / 1024;
    Client::connect(&sock).unwrap().shutdown().unwrap();
    server.join().unwrap().shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(grown_mb < 100, "100 connect/ping/close cycles grew VmSize by {grown_mb} MB");
}
