//! Per-shard flight recorder: a bounded ring of recent serving events,
//! dumped to disk when the supervisor retires the shard.
//!
//! Unlike the span tables (feature-gated, aggregate), the flight recorder
//! is **always on**: each entry is one `Mutex` lock plus a few word writes
//! against microsecond-scale scoring, and its whole purpose is post-mortem
//! — when a shard hangs or panics its way into replacement, the dump is
//! the only record of what the worker was doing in its final moments.
//! Tenant names are recorded as their FNV route hashes: stable enough to
//! correlate events, and the dump never leaks tenant identifiers to disk.
//!
//! The export is one `flight` record per retained event, oldest first, in
//! the shared envelope (see `ppf_sim::observe`).

use std::sync::Mutex;
use std::time::Instant;

use ppf_sim::fault::lock_unpoisoned;
use ppf_sim::observe::{envelope, Ring};

/// Events retained per shard; older entries are overwritten.
pub const FLIGHT_CAPACITY: usize = 256;

/// What a [`FlightEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A score job completed normally (`detail` = candidates scored, of
    /// which `accepted` were accepted).
    Score = 0,
    /// A degraded reply was produced (`detail` = candidates failed open).
    Degraded = 1,
    /// A tenant panicked and was quarantined (`detail` = rebuild count so
    /// far on this shard).
    Panic = 2,
    /// A checkpoint record was appended (`detail` = checkpoint generation).
    Checkpoint = 3,
    /// An injected slow-shard fault stalled the worker (`detail` = ms).
    SlowInject = 4,
}

impl FlightKind {
    fn name(self) -> &'static str {
        match self {
            FlightKind::Score => "score",
            FlightKind::Degraded => "degraded",
            FlightKind::Panic => "panic",
            FlightKind::Checkpoint => "checkpoint",
            FlightKind::SlowInject => "slow-inject",
        }
    }
}

/// One retained event.
#[derive(Debug, Clone, Copy)]
pub struct FlightEvent {
    /// Milliseconds since the recorder (= the shard) started.
    pub at_ms: u64,
    /// Event kind.
    pub kind: FlightKind,
    /// FNV route hash of the tenant involved (0 when not tenant-specific).
    pub tenant: u64,
    /// Kind-specific payload (see [`FlightKind`]).
    pub detail: u64,
    /// Candidates the filter accepted (score events only; 0 otherwise).
    pub accepted: u64,
    /// Duration of the operation, microseconds (0 when not timed).
    pub dur_us: u64,
}

/// The recorder's clock plus its bounded event ring. Thread-safe: the
/// worker records, the supervisor dumps from outside the worker thread.
pub struct FlightRecorder {
    started: Instant,
    ring: Mutex<Ring<FlightEvent>>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder").field("total", &self.total()).finish()
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl FlightRecorder {
    /// A fresh recorder; the clock starts now.
    pub fn new() -> Self {
        Self { started: Instant::now(), ring: Mutex::new(Ring::new(FLIGHT_CAPACITY)) }
    }

    /// Records one event, overwriting the oldest at capacity.
    pub fn record(&self, kind: FlightKind, tenant: u64, detail: u64, dur_us: u64) {
        self.push(kind, tenant, detail, 0, dur_us);
    }

    /// Records a completed score job: `scored` candidates, `accepted` of
    /// them accepted.
    pub fn record_score(&self, tenant: u64, scored: u64, accepted: u64, dur_us: u64) {
        self.push(FlightKind::Score, tenant, scored, accepted, dur_us);
    }

    fn push(&self, kind: FlightKind, tenant: u64, detail: u64, accepted: u64, dur_us: u64) {
        let at_ms = self.started.elapsed().as_millis() as u64;
        lock_unpoisoned(&self.ring).push(FlightEvent { at_ms, kind, tenant, detail, accepted, dur_us });
    }

    /// Events recorded over the recorder's lifetime (retained or not).
    pub fn total(&self) -> u64 {
        lock_unpoisoned(&self.ring).total()
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        lock_unpoisoned(&self.ring).iter().copied().collect()
    }

    /// One `flight` record per retained event, oldest first
    /// (newline-terminated; empty when nothing was recorded).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.events() {
            out.push_str(&format!(
                "{},\"at_ms\":{},\"event\":{},\"tenant\":{},\"detail\":{},\"accepted\":{},\"dur_us\":{}}}\n",
                envelope("flight"),
                ev.at_ms,
                ev.kind as u8,
                ev.tenant,
                ev.detail,
                ev.accepted,
                ev.dur_us
            ));
        }
        out
    }

    /// Human-readable dump, oldest first. Score events show the filter's
    /// accepted/rejected split.
    pub fn render(&self) -> String {
        let events = self.events();
        let mut out = format!("flight recorder: {} retained of {} recorded\n", events.len(), self.total());
        for ev in events {
            out.push_str(&format!(
                "  t+{:>8} ms  {:<11} tenant {:#018x} detail {} dur {} us",
                ev.at_ms,
                ev.kind.name(),
                ev.tenant,
                ev.detail,
                ev.dur_us
            ));
            if ev.kind == FlightKind::Score {
                out.push_str(&format!(
                    " accepted={} rejected={}",
                    ev.accepted,
                    ev.detail.saturating_sub(ev.accepted)
                ));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overwrites_oldest_and_keeps_order() {
        let rec = FlightRecorder::new();
        for i in 0..(FLIGHT_CAPACITY as u64 + 10) {
            rec.record(FlightKind::Score, 7, i, 100);
        }
        let events = rec.events();
        assert_eq!(events.len(), FLIGHT_CAPACITY);
        assert_eq!(rec.total(), FLIGHT_CAPACITY as u64 + 10);
        assert_eq!(events[0].detail, 10, "oldest retained is the 11th");
        assert_eq!(events.last().unwrap().detail, FLIGHT_CAPACITY as u64 + 9);
    }

    #[test]
    fn jsonl_is_flat_numeric_and_parseable() {
        let rec = FlightRecorder::new();
        rec.record(FlightKind::Panic, 0xDEAD, 1, 0);
        rec.record(FlightKind::Checkpoint, 0xBEEF, 3, 42);
        rec.record_score(0xF00D, 5, 3, 17);
        let text = rec.to_jsonl();
        let records = ppf_analysis::observe::parse_document(&text).expect("valid flight records");
        assert_eq!(records.len(), 3);
        assert!(records.iter().all(|r| r.kind() == ppf_analysis::Kind::Flight));
        assert_eq!(records[0].get("event"), Some(FlightKind::Panic as u8 as f64));
        assert_eq!(records[2].get("accepted"), Some(3.0));
        let dump = rec.render();
        assert!(dump.contains("panic"), "{dump}");
        assert!(dump.contains("accepted=3 rejected=2"), "{dump}");
    }
}
