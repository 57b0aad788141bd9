//! Unix-socket front end for the daemon (length-prefixed frames).
//!
//! One accept loop, one thread per connection; each connection is a
//! sequential request/reply stream. All overload and fault policy lives
//! in the daemon — this layer only frames bytes, so a protocol error on
//! one connection closes that connection and nothing else.

#![cfg(unix)]

use std::io::Write;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::daemon::Daemon;
use crate::protocol::{
    decode_reply, decode_score, decode_stats_reply, encode_op, encode_reply,
    encode_stats_reply, read_frame, ScoreReply, ScoreRequest, OP_PING, OP_REPLY, OP_SCORE,
    OP_SHUTDOWN, OP_STATS,
};

/// Serves `daemon` on a unix socket at `path` until an [`OP_SHUTDOWN`]
/// frame arrives. Returns the daemon so the caller can flush and stop it.
pub fn serve_unix(daemon: Daemon, path: &Path) -> std::io::Result<Daemon> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    let daemon = Arc::new(daemon);
    let shutdown = Arc::new(AtomicBool::new(false));
    let mut conns = Vec::new();
    for stream in listener.incoming() {
        if shutdown.load(Ordering::Acquire) {
            break;
        }
        let stream = stream?;
        let daemon = Arc::clone(&daemon);
        let shutdown = Arc::clone(&shutdown);
        let path = path.to_path_buf();
        conns.push(std::thread::spawn(move || {
            if let Err(e) = serve_conn(&daemon, stream, &shutdown) {
                eprintln!("[serve] connection error: {e}");
            }
            if shutdown.load(Ordering::Acquire) {
                // Poke the accept loop so it notices the flag.
                let _ = UnixStream::connect(&path);
            }
        }));
    }
    for c in conns {
        let _ = c.join();
    }
    let _ = std::fs::remove_file(path);
    Ok(Arc::into_inner(daemon).expect("all connection threads joined"))
}

fn serve_conn(
    daemon: &Daemon,
    mut stream: UnixStream,
    shutdown: &AtomicBool,
) -> std::io::Result<()> {
    while let Some(payload) = read_frame(&mut stream)? {
        match payload.first() {
            Some(&OP_SCORE) => {
                // Decode is timed only when profiling is live; the check
                // is one bool, the timing two clock reads.
                let decoded = if daemon.profiling_active() {
                    let t0 = std::time::Instant::now();
                    let decoded = decode_score(&payload);
                    daemon.record_decode_ns(t0.elapsed().as_nanos() as u64);
                    decoded
                } else {
                    decode_score(&payload)
                };
                let reply = match decoded {
                    Ok(req) => daemon.score(req),
                    Err(e) => {
                        eprintln!("[serve] malformed score frame: {e}");
                        break;
                    }
                };
                stream.write_all(&encode_reply(&reply))?;
            }
            Some(&OP_STATS) => {
                stream.write_all(&encode_stats_reply(&daemon.stats_report()))?;
            }
            Some(&OP_PING) => {
                stream
                    .write_all(&encode_reply(&ScoreReply { degraded: false, decisions: vec![] }))?;
            }
            Some(&OP_SHUTDOWN) => {
                shutdown.store(true, Ordering::Release);
                stream.write_all(&encode_reply(&ScoreReply {
                    degraded: false,
                    decisions: vec![],
                }))?;
                break;
            }
            other => {
                eprintln!("[serve] unknown opcode {other:?}");
                break;
            }
        }
    }
    Ok(())
}

/// A blocking client for the unix-socket protocol.
#[derive(Debug)]
pub struct Client {
    stream: UnixStream,
}

impl Client {
    /// Connects to a daemon socket.
    pub fn connect(path: &Path) -> std::io::Result<Self> {
        Ok(Self { stream: UnixStream::connect(path)? })
    }

    fn round_trip(&mut self, frame: &[u8]) -> std::io::Result<ScoreReply> {
        self.stream.write_all(frame)?;
        let payload = read_frame(&mut self.stream)?.ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "daemon closed connection")
        })?;
        if payload.first() != Some(&OP_REPLY) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "expected OP_REPLY",
            ));
        }
        decode_reply(&payload)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Scores a batch.
    pub fn score(&mut self, req: &ScoreRequest) -> std::io::Result<ScoreReply> {
        self.round_trip(&crate::protocol::encode_score(req))
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> std::io::Result<()> {
        self.round_trip(&encode_op(OP_PING)).map(|_| ())
    }

    /// Fetches the daemon's live stats report (counters snapshot line,
    /// then span-table lines when profiling is active).
    pub fn stats(&mut self) -> std::io::Result<String> {
        self.stream.write_all(&encode_op(OP_STATS))?;
        let payload = read_frame(&mut self.stream)?.ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "daemon closed connection")
        })?;
        decode_stats_reply(&payload)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Asks the daemon to flush checkpoints and exit.
    pub fn shutdown(&mut self) -> std::io::Result<()> {
        self.round_trip(&encode_op(OP_SHUTDOWN)).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::ServeConfig;
    use crate::protocol::Candidate;
    use ppf::FeatureInputs;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("ppf-serve-sock-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn socket_round_trip_and_shutdown() {
        let dir = tmpdir("rt");
        let sock = dir.join("ppf.sock");
        let cfg = ServeConfig { checkpoint_dir: dir.join("ckpt"), ..ServeConfig::default() };
        let server = {
            let sock = sock.clone();
            std::thread::spawn(move || {
                let daemon = Daemon::start(cfg);
                // One decode span, so OP_STATS carries a span line whatever
                // PPF_OBSERVE says.
                daemon.record_decode_ns(1_000);
                serve_unix(daemon, &sock).expect("serve").shutdown();
            })
        };
        // The listener needs a moment to bind.
        let mut client = loop {
            match Client::connect(&sock) {
                Ok(c) => break c,
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        };
        client.ping().expect("ping");
        let reply = client
            .score(&ScoreRequest {
                tenant: "t000-a".into(),
                candidates: vec![Candidate {
                    inputs: FeatureInputs::default(),
                    target: 0x1000,
                }],
                demands: vec![],
                evictions: vec![],
            })
            .expect("score");
        assert_eq!(reply.decisions.len(), 1);
        // The whole OP_STATS payload, a serve line then span lines,
        // validates as one mixed document.
        let stats = client.stats().expect("stats");
        let records = ppf_analysis::observe::parse_document(&stats).expect("valid OP_STATS");
        assert_eq!(records[0].kind(), ppf_analysis::Kind::Serve);
        assert_eq!(records[0].get("requests"), Some(1.0));
        assert!(records[1..].iter().any(|r| r.kind() == ppf_analysis::Kind::Span), "{stats}");
        client.shutdown().expect("shutdown");
        server.join().expect("server thread");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
