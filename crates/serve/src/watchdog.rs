//! Shard heartbeat watchdog.
//!
//! Long-lived shard workers register a [`Heartbeat`] and beat it every
//! loop iteration; the daemon's supervisor polls [`Watchdog::stalled`] and
//! replaces whatever went quiet. A shard that stops making progress is
//! detected and replaced without stalling callers.

use ppf_sim::fault::lock_unpoisoned;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Sentinel for "never beat yet": participants start stalled-from-birth
/// *only* after the limit elapses from registration, so a worker that
/// dies before its first beat is still caught.
const NEVER: u64 = u64::MAX;

/// A worker's liveness signal. Cheap to beat (one relaxed atomic store);
/// clone-free hand-off to the worker thread.
#[derive(Debug)]
pub struct Heartbeat {
    last_beat_micros: Arc<AtomicU64>,
    epoch: Instant,
}

impl Heartbeat {
    /// Marks the worker alive *now*. Call once per work-loop iteration.
    pub fn beat(&self) {
        let t = self.epoch.elapsed().as_micros() as u64;
        self.last_beat_micros.store(t, Ordering::Relaxed);
    }
}

/// One registered participant.
#[derive(Debug)]
struct Participant {
    name: String,
    last_beat_micros: Arc<AtomicU64>,
    registered_micros: u64,
}

/// A heartbeat registry for long-lived workers (serving shards).
///
/// Workers [`register`](Watchdog::register) once and beat every iteration;
/// a supervisor polls [`stalled`](Watchdog::stalled). Registering a name
/// again (a replaced shard) supersedes the old entry, so an abandoned
/// worker cannot keep its slot alive or keep it stalled.
#[derive(Debug)]
pub struct Watchdog {
    limit: Duration,
    epoch: Instant,
    parts: Mutex<Vec<Participant>>,
}

impl Watchdog {
    /// A watchdog flagging any participant quiet for longer than `limit`.
    pub fn new(limit: Duration) -> Self {
        Self { limit, epoch: Instant::now(), parts: Mutex::new(Vec::new()) }
    }

    /// Registers (or replaces) a named participant and returns its
    /// heartbeat handle.
    pub fn register(&self, name: &str) -> Heartbeat {
        let cell = Arc::new(AtomicU64::new(NEVER));
        let mut parts = lock_unpoisoned(&self.parts);
        parts.retain(|p| p.name != name);
        parts.push(Participant {
            name: name.to_string(),
            last_beat_micros: Arc::clone(&cell),
            registered_micros: self.epoch.elapsed().as_micros() as u64,
        });
        Heartbeat { last_beat_micros: cell, epoch: self.epoch }
    }

    /// Removes a participant (clean worker shutdown).
    pub fn deregister(&self, name: &str) {
        lock_unpoisoned(&self.parts).retain(|p| p.name != name);
    }

    /// Every participant whose last beat (or registration, if it never
    /// beat) is older than the limit, with how long it has been quiet.
    pub fn stalled(&self) -> Vec<(String, Duration)> {
        let now = self.epoch.elapsed().as_micros() as u64;
        let limit = self.limit.as_micros() as u64;
        lock_unpoisoned(&self.parts)
            .iter()
            .filter_map(|p| {
                let last = match p.last_beat_micros.load(Ordering::Relaxed) {
                    NEVER => p.registered_micros,
                    t => t,
                };
                let quiet = now.saturating_sub(last);
                (quiet > limit).then(|| (p.name.clone(), Duration::from_micros(quiet)))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beating_workers_are_not_stalled() {
        let wd = Watchdog::new(Duration::from_millis(40));
        let hb = wd.register("shard-0");
        hb.beat();
        assert!(wd.stalled().is_empty());
    }

    #[test]
    fn quiet_worker_is_flagged_and_replacement_clears_it() {
        let wd = Watchdog::new(Duration::from_millis(20));
        let hb = wd.register("shard-1");
        hb.beat();
        std::thread::sleep(Duration::from_millis(60));
        let stalled = wd.stalled();
        assert_eq!(stalled.len(), 1);
        assert_eq!(stalled[0].0, "shard-1");
        assert!(stalled[0].1 >= Duration::from_millis(20));
        // Replacing the shard supersedes the stalled entry.
        let hb2 = wd.register("shard-1");
        hb2.beat();
        assert!(wd.stalled().is_empty());
        // The old handle no longer resurrects the entry.
        hb.beat();
        assert!(wd.stalled().is_empty());
    }

    #[test]
    fn never_beating_worker_stalls_after_limit() {
        let wd = Watchdog::new(Duration::from_millis(15));
        let _hb = wd.register("shard-2");
        assert!(wd.stalled().is_empty(), "not stalled at birth");
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(wd.stalled().len(), 1);
        wd.deregister("shard-2");
        assert!(wd.stalled().is_empty());
    }
}
