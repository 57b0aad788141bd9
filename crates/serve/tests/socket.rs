//! The socket front end under faults: a hung shard, a frame that arrives
//! in parts, a client that never reads its replies, and a client that
//! pipelines requests. Replies are written by whichever thread answers
//! them, so these pin the deadline, the write timeout and reply order
//! over a real unix socket.

use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ppf_serve::daemon::{Daemon, ServeConfig};
use ppf_serve::protocol::{decode_reply, encode_score, Candidate, FrameReader, ScoreRequest};
use ppf_serve::server::{serve_unix, Client};
use ppf_serve::TenantState;
use ppf_sim::fault::FaultSpec;

fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ppf-serve-socket-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn req(tenant: &str, i: u64, candidates: usize) -> ScoreRequest {
    let candidates = (0..candidates as u64)
        .map(|k| {
            let addr = 0x4000_0000 + (i * 16 + k) * 64;
            Candidate {
                inputs: ppf::FeatureInputs {
                    trigger_addr: addr,
                    trigger_pc: 0x40_0000 + (i % 5) * 4,
                    delta: (k % 3) as i16 + 1,
                    depth: (k % 4) as u8,
                    ..ppf::FeatureInputs::default()
                },
                target: addr + 64,
            }
        })
        .collect();
    ScoreRequest {
        tenant: tenant.into(),
        candidates,
        demands: vec![0x4000_0000 + i * 64],
        evictions: vec![],
    }
}

/// Serves a fresh daemon on a socket in `dir`; returns the server thread
/// and the socket path once the socket accepts connections.
fn serve(dir: &Path, cfg: ServeConfig) -> (JoinHandle<Daemon>, PathBuf) {
    let sock = dir.join("s.sock");
    let server = {
        let sock = sock.clone();
        std::thread::spawn(move || serve_unix(Daemon::start(cfg), &sock).expect("serve"))
    };
    let give_up = Instant::now() + Duration::from_secs(10);
    while UnixStream::connect(&sock).is_err() {
        assert!(Instant::now() < give_up, "daemon never bound {}", sock.display());
        std::thread::sleep(Duration::from_millis(5));
    }
    (server, sock)
}

fn stop(server: JoinHandle<Daemon>, sock: &Path) {
    Client::connect(sock).unwrap().shutdown().unwrap();
    server.join().expect("server thread").shutdown();
}

#[test]
fn hung_shard_degrades_in_time_and_the_connection_recovers() {
    let dir = tmpdir("hung");
    let (server, sock) = serve(
        &dir,
        ServeConfig {
            shards: 1,
            checkpoint_dir: dir.join("ckpt"),
            deadline: Duration::from_millis(50),
            faults: vec![FaultSpec::SlowShard { shard: 0, millis: 1500 }],
            ..ServeConfig::default()
        },
    );
    let mut client = Client::connect(&sock).unwrap();
    let t0 = Instant::now();
    let first = client.score(&req("t000-a", 0, 4)).unwrap();
    let took = t0.elapsed();
    assert!(first.degraded, "the hung shard must fail open");
    assert_eq!(first.decisions.len(), 4);
    assert!(took < Duration::from_millis(300), "degraded reply took {took:?}");
    // Once the supervisor replaces the shard, the same connection is
    // served normally again.
    let give_up = Instant::now() + Duration::from_secs(10);
    let mut i = 1;
    while client.score(&req("t000-a", i, 4)).unwrap().degraded {
        assert!(Instant::now() < give_up, "the replacement shard never answered");
        i += 1;
    }
    assert!(!client.score(&req("t000-a", i + 1, 4)).unwrap().degraded);
    drop(client);
    stop(server, &sock);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn part_of_the_next_frame_does_not_push_the_deadline_back() {
    let dir = tmpdir("partial");
    let (server, sock) = serve(
        &dir,
        ServeConfig {
            shards: 1,
            checkpoint_dir: dir.join("ckpt"),
            deadline: Duration::from_millis(200),
            faults: vec![FaultSpec::SlowShard { shard: 0, millis: 1500 }],
            ..ServeConfig::default()
        },
    );
    let mut stream = UnixStream::connect(&sock).unwrap();
    let next = encode_score(&req("t000-a", 1, 2));
    let t0 = Instant::now();
    stream.write_all(&encode_score(&req("t000-a", 0, 2))).unwrap();
    // Two bytes of the next request wake the connection thread 150 ms
    // into the first one's 200-ms deadline. Waiting a whole read timeout
    // for the rest would send the degraded reply at 350 ms or later.
    std::thread::sleep(Duration::from_millis(150));
    stream.write_all(&next[..2]).unwrap();
    let mut reader = FrameReader::new();
    let first = decode_reply(reader.read_frame(&mut stream).unwrap().unwrap()).unwrap();
    let took = t0.elapsed();
    assert!(first.degraded, "the hung shard must fail open");
    assert!(took < Duration::from_millis(300), "degraded reply took {took:?}");
    stream.write_all(&next[2..]).unwrap();
    let second = decode_reply(reader.read_frame(&mut stream).unwrap().unwrap()).unwrap();
    assert_eq!(second.decisions.len(), 2);
    drop(stream);
    stop(server, &sock);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_client_that_never_reads_is_cut_off_without_holding_the_shard() {
    let dir = tmpdir("noread");
    let (server, sock) = serve(
        &dir,
        ServeConfig {
            shards: 1,
            checkpoint_dir: dir.join("ckpt"),
            deadline: Duration::from_millis(50),
            ..ServeConfig::default()
        },
    );
    // Pipelines requests and never reads a reply, until the daemon shuts
    // the connection down under it.
    let rude = {
        let mut stream = UnixStream::connect(&sock).unwrap();
        let frame = encode_score(&req("t001-rude", 0, 8));
        std::thread::spawn(move || {
            let give_up = Instant::now() + Duration::from_secs(20);
            while Instant::now() < give_up {
                if stream.write_all(&frame).is_err() {
                    return true;
                }
            }
            false
        })
    };
    let mut client = Client::connect(&sock).unwrap();
    let t0 = Instant::now();
    let (mut sent, mut degraded) = (0, 0);
    while t0.elapsed() < Duration::from_secs(2) {
        degraded += u32::from(client.score(&req("t000-polite", sent, 4)).unwrap().degraded);
        sent += 1;
    }
    assert!(rude.join().unwrap(), "the connection that never reads was not shut down");
    assert!(degraded <= 2, "{degraded} of {sent} polite replies degraded");
    drop(client);
    stop(server, &sock);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let dir = tmpdir("pipeline");
    let cfg = ServeConfig {
        shards: 2,
        checkpoint_dir: dir.join("ckpt"),
        // No barrier clears the filters' tables mid-run.
        checkpoint_every: 1_000,
        deadline: Duration::from_secs(5),
        ..ServeConfig::default()
    };
    // One tenant per shard: a large request on one shard followed by a
    // small one on the other would be answered out of order if the
    // connection did not keep replies in request order.
    let probe = Daemon::start(ServeConfig { checkpoint_dir: dir.join("probe"), ..cfg.clone() });
    let mut names = (0..).map(|k| format!("t{k:03}-p"));
    let big = names.find(|n| probe.route(n) == 0).unwrap();
    let small = names.find(|n| probe.route(n) == 1).unwrap();
    probe.shutdown();
    let (server, sock) = serve(&dir, cfg);
    let tenants = [big, small];
    let requests: Vec<ScoreRequest> = (0..64u64)
        .map(|i| match i % 2 {
            // Mixed sizes, most of the large frames over a read chunk.
            0 => req(&tenants[0], i, 100 + (i as usize * 37) % 300),
            _ => req(&tenants[1], i, i as usize % 5),
        })
        .collect();
    let mut stream = UnixStream::connect(&sock).unwrap();
    let frames: Vec<u8> = requests.iter().flat_map(encode_score).collect();
    stream.write_all(&frames).unwrap();
    let mut reader = FrameReader::new();
    let mut replay: Vec<TenantState> = tenants.iter().map(|t| TenantState::fresh(t)).collect();
    for (i, r) in requests.iter().enumerate() {
        let payload = reader.read_frame(&mut stream).unwrap().expect("reply");
        let reply = decode_reply(payload).unwrap();
        assert!(!reply.degraded, "reply {i} degraded");
        let want = replay[i % 2].process(r);
        assert_eq!(reply.decisions, want, "reply {i} out of order or wrong");
    }
    drop(stream);
    stop(server, &sock);
    let _ = std::fs::remove_dir_all(&dir);
}
