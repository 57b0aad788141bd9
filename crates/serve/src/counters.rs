//! Always-on daemon counters plus a log2 latency histogram.
//!
//! Counters are plain relaxed atomics: the serving hot path pays one
//! uncontended `fetch_add` per event and nothing else, so they stay on
//! in every build. Exporting a JSONL snapshot for offline analysis is a
//! separate, `observe`-gated concern (see [`crate::daemon`]).

use std::sync::atomic::{AtomicU64, Ordering};

use ppf_sim::observe::envelope;

/// Number of log2 latency buckets (bucket `i` covers `[2^i, 2^{i+1})` µs,
/// bucket 0 covers `[0, 2)`). 32 buckets reach ~71 minutes.
pub const LATENCY_BUCKETS: usize = 32;

/// Fleet-wide counters, shared by every shard and the caller-facing API.
#[derive(Debug, Default)]
pub struct Counters {
    /// Score requests submitted to a shard.
    pub requests: AtomicU64,
    /// Score requests scored on the thread that submitted them (the
    /// shard's queue was empty and its tenant lock free), waking no worker.
    pub inline_scores: AtomicU64,
    /// Individual prefetch candidates scored.
    pub candidates: AtomicU64,
    /// Candidates accepted (either cache level).
    pub accepted: AtomicU64,
    /// Candidates rejected.
    pub rejected: AtomicU64,
    /// Requests shed because a shard queue overflowed (oldest dropped).
    pub shed_overflow: AtomicU64,
    /// Requests shed because one tenant exceeded its fair queue quota.
    pub shed_quota: AtomicU64,
    /// Replies downgraded to accept-all (shed, deadline miss, or panic).
    pub degraded_replies: AtomicU64,
    /// Caller deadlines that expired before the shard replied.
    pub deadline_misses: AtomicU64,
    /// Tenants rebuilt from their last checkpoint after a panic.
    pub tenant_restarts: AtomicU64,
    /// Shards replaced by the supervisor after a stalled heartbeat.
    pub shard_replacements: AtomicU64,
    /// Checkpoint records appended.
    pub checkpoint_records: AtomicU64,
    /// Checkpoint records corrupted by fault injection (chaos drills).
    pub checkpoint_bitflips: AtomicU64,
    /// Checkpoint records dropped at load time (torn tail or CRC failure).
    pub checkpoint_drops: AtomicU64,
    /// Tenants restored from checkpoints at daemon start.
    pub warm_started_tenants: AtomicU64,
    latency: [AtomicU64; LATENCY_BUCKETS],
}

impl Counters {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one caller-observed request latency.
    pub fn record_latency_us(&self, us: u64) {
        let bucket = (64 - us.leading_zeros() as usize)
            .saturating_sub(1)
            .min(LATENCY_BUCKETS - 1);
        self.latency[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Latency bucket counts (bucket `i` = `[2^i, 2^{i+1})` µs).
    pub fn latency_buckets(&self) -> [u64; LATENCY_BUCKETS] {
        std::array::from_fn(|i| self.latency[i].load(Ordering::Relaxed))
    }

    /// Upper bound (µs) of the bucket containing quantile `q` (0.0–1.0),
    /// reconstructed from the histogram. Returns 0 with no samples. Every
    /// `serve` record carries its p50 and p99, so readers never redo this.
    pub fn latency_quantile_us(&self, q: f64) -> u64 {
        let buckets = self.latency_buckets();
        let total: u64 = buckets.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64 * q).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &n) in buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return 1u64 << (i + 1);
            }
        }
        1u64 << LATENCY_BUCKETS
    }

    /// One `serve` record of every counter (plus latency buckets with
    /// samples) in the shared envelope, so `ppf_analysis::observe` parses
    /// it like every other export.
    pub fn snapshot_jsonl(&self, elapsed_ms: u64) -> String {
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut line = format!(
            "{},\"elapsed_ms\":{elapsed_ms},\
             \"requests\":{},\"inline_scores\":{},\"candidates\":{},\"accepted\":{},\"rejected\":{},\
             \"shed_overflow\":{},\"shed_quota\":{},\"degraded_replies\":{},\
             \"deadline_misses\":{},\"tenant_restarts\":{},\
             \"shard_replacements\":{},\"checkpoint_records\":{},\
             \"checkpoint_bitflips\":{},\"checkpoint_drops\":{},\
             \"warm_started_tenants\":{},\"p50_us\":{},\"p99_us\":{}",
            envelope("serve"),
            g(&self.requests),
            g(&self.inline_scores),
            g(&self.candidates),
            g(&self.accepted),
            g(&self.rejected),
            g(&self.shed_overflow),
            g(&self.shed_quota),
            g(&self.degraded_replies),
            g(&self.deadline_misses),
            g(&self.tenant_restarts),
            g(&self.shard_replacements),
            g(&self.checkpoint_records),
            g(&self.checkpoint_bitflips),
            g(&self.checkpoint_drops),
            g(&self.warm_started_tenants),
            self.latency_quantile_us(0.50),
            self.latency_quantile_us(0.99),
        );
        for (i, n) in self.latency_buckets().into_iter().enumerate() {
            if n > 0 {
                line.push_str(&format!(",\"lat_b{i}\":{n}"));
            }
        }
        line.push('}');
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_buckets_are_log2() {
        let c = Counters::new();
        c.record_latency_us(0);
        c.record_latency_us(1);
        c.record_latency_us(2);
        c.record_latency_us(3);
        c.record_latency_us(1024);
        let b = c.latency_buckets();
        assert_eq!(b[0], 2, "0 and 1 land in bucket 0");
        assert_eq!(b[1], 2, "2 and 3 land in bucket 1");
        assert_eq!(b[10], 1, "1024 lands in bucket 10");
    }

    #[test]
    fn quantiles_reconstruct_from_histogram() {
        let c = Counters::new();
        for _ in 0..99 {
            c.record_latency_us(10); // bucket 3, upper bound 16
        }
        c.record_latency_us(5000); // bucket 12, upper bound 8192
        assert_eq!(c.latency_quantile_us(0.50), 16);
        assert_eq!(c.latency_quantile_us(0.99), 16);
        assert_eq!(c.latency_quantile_us(1.0), 8192);
        assert_eq!(Counters::new().latency_quantile_us(0.5), 0);

        // 89 + 92 + 9 + 10 samples in buckets 1, 2, 3 and 9: rank 100
        // falls in bucket 2 (-> 8 µs), rank 198 in bucket 9 (-> 1024 µs).
        let c = Counters::new();
        for (us, n) in [(2, 89), (4, 92), (8, 9), (512, 10)] {
            for _ in 0..n {
                c.record_latency_us(us);
            }
        }
        assert_eq!(c.latency_quantile_us(0.50), 8);
        assert_eq!(c.latency_quantile_us(0.99), 1024);
    }

    #[test]
    fn quantile_edge_cases() {
        // A single occupied bucket answers every quantile with its upper
        // bound: bucket 4 covers [16, 32) µs -> 32.
        let single = Counters::new();
        for _ in 0..10 {
            single.record_latency_us(20);
        }
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(single.latency_quantile_us(q), 32, "q={q}");
        }

        // All mass in the last bucket (i = 31): the upper bound 2^32 µs
        // must not wrap or drop to a lower bucket.
        let last = Counters::new();
        for _ in 0..5 {
            last.record_latency_us(u64::MAX);
        }
        assert_eq!(last.latency_buckets()[LATENCY_BUCKETS - 1], 5);
        assert_eq!(last.latency_quantile_us(0.5), 1u64 << 32);
        assert_eq!(last.latency_quantile_us(1.0), 4294967296);

        // One sample: every rank clamps to it, q=0 included.
        let one = Counters::new();
        one.record_latency_us(0);
        assert_eq!(one.latency_quantile_us(0.0), 2);
        assert_eq!(one.latency_quantile_us(1.0), 2);
    }

    #[test]
    fn snapshot_is_flat_numeric_json() {
        let c = Counters::new();
        c.requests.fetch_add(7, Ordering::Relaxed);
        c.record_latency_us(100);
        let line = c.snapshot_jsonl(1234);
        let rec = ppf_analysis::observe::parse_line(&line).expect("valid serve record");
        assert_eq!(rec.kind(), ppf_analysis::Kind::Serve);
        assert_eq!(rec.get("requests"), Some(7.0));
        assert_eq!(rec.get("elapsed_ms"), Some(1234.0));
        assert_eq!(rec.get("lat_b6"), Some(1.0));
        assert_eq!(rec.get("p99_us"), Some(128.0));
    }
}
