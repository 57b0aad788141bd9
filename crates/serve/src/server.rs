//! Unix-socket front end for the daemon (length-prefixed frames).
//!
//! One accept loop, one thread per connection. All overload and fault
//! policy lives in the daemon: this layer only frames bytes, so a
//! protocol error on one connection closes that connection and nothing
//! else. The accept loop joins finished connection threads as it goes,
//! so a closed connection does not keep its thread stack.
//!
//! A connection thread does not wait for its score replies. It decodes a
//! request and submits it with the connection as the reply sink. When the
//! request's shard is idle, the connection thread scores it and writes the
//! reply frame itself, so the request wakes no other thread. Otherwise it
//! goes back to reading the socket, and whichever thread answers the
//! request (the shard worker, a shed path, the deadline) writes the reply
//! frame (the crate's `reply` module). Before it handles the next frame of any opcode,
//! the connection thread settles the pending reply, so a client that
//! pipelines requests gets its replies in request order.
//!
//! The deadline needs no waiting thread. The socket's read timeout is
//! the daemon deadline, so a client waiting for a reply wakes its
//! connection thread at about the deadline, and that thread answers an
//! overdue reply degraded. A read that brings in only part of a frame
//! settles the pending reply before reading on, so it cannot push the
//! deadline back. The write timeout is the deadline too: a reply that
//! cannot be written in time, to a client that stopped reading, shuts
//! the connection down.

#![cfg(unix)]

use std::io::{ErrorKind, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::daemon::Daemon;
use crate::protocol::{
    decode_reply, decode_score, decode_stats_reply, encode_op, encode_reply,
    encode_stats_reply, FrameReader, ScoreReply, ScoreRequest, OP_PING, OP_SCORE,
    OP_SHUTDOWN, OP_STATS,
};
use crate::reply::ReplySlot;

/// Serves `daemon` on a unix socket at `path` until an [`OP_SHUTDOWN`]
/// frame arrives. Returns the daemon so the caller can flush and stop it.
pub fn serve_unix(daemon: Daemon, path: &Path) -> std::io::Result<Daemon> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    let daemon = Arc::new(daemon);
    let shutdown = Arc::new(AtomicBool::new(false));
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shutdown.load(Ordering::Acquire) {
            break;
        }
        for done in conns.extract_if(.., |c| c.is_finished()) {
            let _ = done.join();
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

fn serve_conn(daemon: &Daemon, stream: UnixStream, shutdown: &AtomicBool) -> std::io::Result<()> {
    stream.set_read_timeout(Some(daemon.deadline()))?;
    stream.set_write_timeout(Some(daemon.deadline()))?;
    let conn = Arc::new(stream);
    let mut pending = None;
    let result = conn_loop(daemon, &conn, shutdown, &mut pending);
    // Whatever ended the loop, the last request still gets its reply, and
    // the client sees the connection closed even while a late answer
    // still holds it.
    let settled = settle(&mut pending);
    let _ = conn.shutdown(std::net::Shutdown::Both);
    result.and(settled)
}

/// Waits until `pending`'s reply is written, or writes a degraded one at
/// its deadline. An error means the write failed and the connection is
/// shut down.
fn settle(pending: &mut Option<ReplySlot>) -> std::io::Result<()> {
    match pending.take() {
        Some(slot) if !slot.settle() => Err(std::io::Error::new(
            ErrorKind::BrokenPipe,
            "score reply not written; connection shut down",
        )),
        _ => Ok(()),
    }
}

fn conn_loop(
    daemon: &Daemon,
    conn: &Arc<UnixStream>,
    shutdown: &AtomicBool,
    pending: &mut Option<ReplySlot>,
) -> std::io::Result<()> {
    let mut reader = FrameReader::new();
    loop {
        let Some(payload) = reader.next_frame()? else {
            // Part of a frame is in: settle first, so that waiting for the
            // rest cannot push the pending reply's deadline back.
            if reader.has_partial() {
                settle(pending)?;
            }
            match reader.fill(&mut &**conn) {
                Ok(0) if reader.has_partial() => {
                    return Err(std::io::Error::new(ErrorKind::UnexpectedEof, "EOF inside frame"))
                }
                Ok(0) => return Ok(()),
                Ok(_) => {}
                // The read timeout is the deadline: a pending reply is
                // due about now.
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    settle(pending)?
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
            continue;
        };
        settle(pending)?;
        match payload.first() {
            Some(&OP_SCORE) => {
                // Decode is timed only when profiling is live; the check
                // is one bool, the timing two clock reads.
                let decoded = if daemon.profiling_active() {
                    let t0 = std::time::Instant::now();
                    let decoded = decode_score(payload);
                    daemon.record_decode_ns(t0.elapsed().as_nanos() as u64);
                    decoded
                } else {
                    decode_score(payload)
                };
                match decoded {
                    Ok(req) => *pending = Some(daemon.score_to(req, conn)),
                    Err(e) => {
                        eprintln!("[serve] malformed score frame: {e}");
                        return Ok(());
                    }
                }
            }
            Some(&OP_STATS) => {
                (&**conn).write_all(&encode_stats_reply(&daemon.stats_report()))?;
            }
            Some(&OP_PING) => {
                (&**conn)
                    .write_all(&encode_reply(&ScoreReply { degraded: false, decisions: vec![] }))?;
            }
            Some(&OP_SHUTDOWN) => {
                shutdown.store(true, Ordering::Release);
                (&**conn).write_all(&encode_reply(&ScoreReply {
                    degraded: false,
                    decisions: vec![],
                }))?;
                return Ok(());
            }
            other => {
                eprintln!("[serve] unknown opcode {other:?}");
                return Ok(());
            }
        }
    }
}

/// A blocking client for the unix-socket protocol.
#[derive(Debug)]
pub struct Client {
    stream: UnixStream,
    reader: FrameReader,
}

impl Client {
    /// Connects to a daemon socket.
    pub fn connect(path: &Path) -> std::io::Result<Self> {
        Ok(Self { stream: UnixStream::connect(path)?, reader: FrameReader::new() })
    }

    /// Sends `frame` and returns the payload of the frame that answers it.
    fn exchange(&mut self, frame: &[u8]) -> std::io::Result<&[u8]> {
        self.stream.write_all(frame)?;
        self.reader.read_frame(&mut self.stream)?.ok_or_else(|| {
            std::io::Error::new(ErrorKind::UnexpectedEof, "daemon closed connection")
        })
    }

    fn round_trip(&mut self, frame: &[u8]) -> std::io::Result<ScoreReply> {
        let payload = self.exchange(frame)?;
        decode_reply(payload).map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))
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
        let payload = self.exchange(&encode_op(OP_STATS))?;
        decode_stats_reply(payload).map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))
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
