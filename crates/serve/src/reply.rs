//! The reply slot: where a score request's one reply goes.
//!
//! A [`ReplySlot`] is answered exactly once, by whichever thread comes
//! first: the thread that scored the request (the shard worker, or the
//! submitting thread itself when it scored inline), a shed path in
//! `ShardInner::submit_score`, a retiring shard's drain, or the deadline
//! (the waiting side, or the supervisor for an overrunning inline score).
//! It has two sinks:
//!
//! - **An in-process caller** parked in [`crate::Daemon::score`], which
//!   takes the reply out of the slot ([`ReplySlot::wait`]).
//! - **A socket connection's write half.** The answering thread writes
//!   the reply frame to the connection itself, so the connection thread
//!   never sleeps on the shard: it goes back to reading the socket and
//!   settles the slot ([`ReplySlot::settle`]) only before it handles the
//!   connection's next frame, or when a read wakes it near the deadline.
//!   The socket's write timeout is the deadline, and a write that cannot
//!   finish shuts the connection down, so a client that stops reading
//!   holds a shard for one deadline at most.
//!
//! Whoever answers at the deadline counts it in `deadline_misses` and
//! `degraded_replies`; latency goes into the histogram when the caller
//! takes the reply, or when the reply frame is written.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use ppf_sim::fault::lock_unpoisoned;

use crate::counters::Counters;
use crate::protocol::ScoreReply;

/// One request's reply, shared by the thread that submitted it and the
/// job in the shard queue.
#[derive(Clone)]
pub(crate) struct ReplySlot(Arc<Shared>);

struct Shared {
    /// Candidates in the request: the length of a degraded reply.
    n: usize,
    start: Instant,
    due: Instant,
    counters: Arc<Counters>,
    sink: Sink,
    state: Mutex<State>,
    cv: Condvar,
}

enum Sink {
    Caller,
    #[cfg(unix)]
    Conn(Arc<std::os::unix::net::UnixStream>),
}

struct State {
    phase: Phase,
    /// The submitter sleeps on `cv`; an answer notifies only then.
    waiting: bool,
}

enum Phase {
    Open,
    /// Claimed by a thread that is writing the frame to the connection.
    Writing,
    /// The in-process caller's reply, not yet taken.
    Ready(ScoreReply),
    /// Answered and delivered; `false` if the connection write failed.
    Closed { delivered: bool },
}

impl ReplySlot {
    fn new(n: usize, deadline: Duration, counters: &Arc<Counters>, sink: Sink) -> Self {
        let start = Instant::now();
        Self(Arc::new(Shared {
            n,
            start,
            due: start + deadline,
            counters: Arc::clone(counters),
            sink,
            state: Mutex::new(State { phase: Phase::Open, waiting: false }),
            cv: Condvar::new(),
        }))
    }

    /// A slot for a caller that will [`wait`](Self::wait) on it.
    pub(crate) fn for_caller(n: usize, deadline: Duration, counters: &Arc<Counters>) -> Self {
        Self::new(n, deadline, counters, Sink::Caller)
    }

    /// A slot whose answer is written to `conn` as a reply frame.
    #[cfg(unix)]
    pub(crate) fn for_conn(
        n: usize,
        deadline: Duration,
        counters: &Arc<Counters>,
        conn: &Arc<std::os::unix::net::UnixStream>,
    ) -> Self {
        Self::new(n, deadline, counters, Sink::Conn(Arc::clone(conn)))
    }

    /// Answers the slot unless another thread already has; returns
    /// whether this call answered it.
    pub(crate) fn answer(&self, reply: ScoreReply) -> bool {
        let sh = &*self.0;
        let mut st = lock_unpoisoned(&sh.state);
        if !matches!(st.phase, Phase::Open) {
            return false;
        }
        match &sh.sink {
            Sink::Caller => {
                st.phase = Phase::Ready(reply);
                sh.wake(st);
            }
            #[cfg(unix)]
            Sink::Conn(conn) => {
                use std::io::Write;
                st.phase = Phase::Writing;
                drop(st);
                let delivered = (&**conn)
                    .write_all(&crate::protocol::encode_reply(&reply))
                    .is_ok();
                sh.counters.record_latency_us(sh.start.elapsed().as_micros() as u64);
                if !delivered {
                    let _ = conn.shutdown(std::net::Shutdown::Both);
                }
                let mut st = lock_unpoisoned(&sh.state);
                st.phase = Phase::Closed { delivered };
                sh.wake(st);
            }
        }
        true
    }

    /// Answers with the fail-open reply unless another thread already has.
    pub(crate) fn degrade(&self) -> bool {
        self.answer(ScoreReply::degraded(self.0.n))
    }

    /// Whether the deadline has passed with the slot still open.
    pub(crate) fn overdue(&self) -> bool {
        Instant::now() >= self.0.due && matches!(lock_unpoisoned(&self.0.state).phase, Phase::Open)
    }

    /// Answers degraded at the deadline, counting the miss, unless the
    /// slot was answered meanwhile.
    pub(crate) fn expire(&self) {
        if self.degrade() {
            let c = &self.0.counters;
            c.deadline_misses.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            c.degraded_replies.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// One wait for the slot's state to change: until the deadline while
    /// the slot is open (then it is expired), unbounded while an answer
    /// is being written (the write timeout bounds that).
    fn sleep<'a>(&'a self, mut st: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        let sh = &*self.0;
        if matches!(st.phase, Phase::Open) {
            let now = Instant::now();
            if now >= sh.due {
                drop(st);
                self.expire();
                return lock_unpoisoned(&sh.state);
            }
            st.waiting = true;
            return sh
                .cv
                .wait_timeout(st, sh.due - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
        st.waiting = true;
        sh.cv.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The in-process caller's side: blocks until the slot is answered,
    /// or answers it degraded once the deadline passes. Records latency.
    pub(crate) fn wait(self) -> ScoreReply {
        let sh = &*self.0;
        let mut st = lock_unpoisoned(&sh.state);
        loop {
            match std::mem::replace(&mut st.phase, Phase::Closed { delivered: true }) {
                Phase::Ready(reply) => {
                    drop(st);
                    sh.counters.record_latency_us(sh.start.elapsed().as_micros() as u64);
                    return reply;
                }
                other => st.phase = other,
            }
            st = self.sleep(st);
        }
    }

    /// The connection's side: blocks until the slot's reply is written,
    /// writing a degraded one itself once the deadline passes. Returns
    /// whether the reply reached the connection; `false` means the write
    /// failed and the connection is shut down.
    #[cfg(unix)]
    pub(crate) fn settle(&self) -> bool {
        let sh = &*self.0;
        let mut st = lock_unpoisoned(&sh.state);
        loop {
            if let Phase::Closed { delivered } = st.phase {
                return delivered;
            }
            st = self.sleep(st);
        }
    }
}

impl Shared {
    fn wake(&self, mut st: MutexGuard<'_, State>) {
        if std::mem::take(&mut st.waiting) {
            drop(st);
            self.cv.notify_one();
        }
    }
}
