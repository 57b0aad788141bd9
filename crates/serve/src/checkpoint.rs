//! Per-shard crash-safe weight checkpoints.
//!
//! Each shard owns one append-only JSONL file, `shard-<k>.jsonl`, of
//! CRC-sealed records (the same seal the sweep checkpoints use, see
//! [`ppf_sim::ckpt`], read back through [`ppf_sim::json`]):
//!
//! ```text
//! {"crc":"xxxxxxxx","v":1,"tenant":"t003-619.lbm_s","gen":4,"weights":"<hex>"}
//! ```
//!
//! Appends go through the shard's single worker thread, so the file has one
//! writer in the steady state. The interesting failure is a *replaced*
//! shard: the supervisor abandons a stalled worker rather than joining it,
//! and the zombie may wake up mid-append and interleave bytes with its
//! replacement. The CRC seal turns that from silent corruption into a
//! dropped record; the torn-tail rule covers a crash mid-append. Recovery
//! is last-record-wins per tenant, mirroring the sweep's resume discipline.
//!
//! Compaction (rewriting the file to one record per tenant) uses the
//! sibling-tmp + rename pattern, so a crash mid-compaction leaves either
//! the old file or the new one, never a hybrid.

use std::collections::HashMap;
use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};

use ppf_sim::{ckpt, json};

use crate::protocol::valid_tenant;

/// Schema version tag for serve checkpoint records.
pub const SCHEMA_VERSION: u32 = 1;

/// A tenant's restored state: checkpoint generation and weight snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoredTenant {
    /// Monotonic checkpoint generation (per tenant).
    pub gen: u64,
    /// Raw weight bytes for [`ppf::PpfFilter::warm_start`].
    pub weights: Vec<u8>,
}

/// What a checkpoint load recovered, plus what it had to drop.
#[derive(Debug, Default)]
pub struct Restored {
    /// Last-wins tenant snapshots.
    pub tenants: HashMap<String, RestoredTenant>,
    /// Records dropped: torn tail, failed CRC, or malformed body.
    pub dropped: u64,
}

/// Handle to one shard's checkpoint file.
#[derive(Debug, Clone)]
pub struct ShardCheckpoint {
    path: PathBuf,
}

fn hex_encode(bytes: &[u8]) -> String {
    const NIBBLES: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(char::from(NIBBLES[usize::from(b >> 4)]));
        s.push(char::from(NIBBLES[usize::from(b & 0xf)]));
    }
    s
}

fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let nibble = |b: u8| char::from(b).to_digit(16);
    s.as_bytes()
        .chunks(2)
        .map(|pair| Some(((nibble(pair[0])? << 4) | nibble(pair[1])?) as u8))
        .collect()
}

impl ShardCheckpoint {
    /// Checkpoint file for shard `idx` under `dir`.
    pub fn new(dir: &Path, idx: usize) -> Self {
        Self { path: dir.join(format!("shard-{idx}.jsonl")) }
    }

    /// The file's path (for tests and diagnostics).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Formats one record body (unsealed, no newline).
    fn record_body(tenant: &str, gen: u64, weights: &[u8]) -> String {
        assert!(
            valid_tenant(tenant),
            "a tenant name spliced unescaped must pass valid_tenant, got {tenant:?}"
        );
        format!(
            "{{\"v\":{SCHEMA_VERSION},\"tenant\":\"{tenant}\",\"gen\":{gen},\
             \"weights\":\"{}\"}}",
            hex_encode(weights)
        )
    }

    /// Appends one sealed record. With `bitflip`, a single bit of the
    /// written weights hex is flipped *after* sealing — the chaos drill's
    /// stand-in for storage corruption, guaranteed to fail the CRC check
    /// on the next load.
    pub fn append(
        &self,
        tenant: &str,
        gen: u64,
        weights: &[u8],
        bitflip: bool,
    ) -> std::io::Result<()> {
        if let Some(parent) = self.path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut line = ckpt::seal(&Self::record_body(tenant, gen, weights));
        if bitflip {
            // Flip one bit in the last weights nibble (safely inside the
            // sealed region, so `ckpt::check` must reject the record).
            let at = line.rfind('"').map(|q| q - 1).unwrap_or(line.len() - 1);
            // SAFETY-free byte edit: both old and new chars are ASCII.
            let mut bytes = line.into_bytes();
            bytes[at] ^= 0x02;
            line = String::from_utf8(bytes).expect("ASCII xor stays ASCII");
        }
        line.push('\n');
        let mut f = OpenOptions::new().create(true).append(true).open(&self.path)?;
        f.write_all(line.as_bytes())?;
        f.sync_all()
    }

    /// Loads the file tolerantly: a torn trailing line and CRC-failing
    /// records are dropped (and counted), complete records apply
    /// last-wins per tenant. A missing file is an empty fleet.
    pub fn load(&self) -> Restored {
        let loaded = match ckpt::load_tolerant(&self.path) {
            Ok(l) => l,
            Err(e) => {
                // Fail open: an unreadable file is an empty fleet, not a
                // crashed daemon.
                eprintln!("[serve] {}: checkpoint load failed: {e}", self.path.display());
                return Restored::default();
            }
        };
        let dropped = loaded.dropped_crc as u64 + u64::from(loaded.torn_tail);
        let mut out = Restored { tenants: HashMap::new(), dropped };
        for line in &loaded.lines {
            let parsed = (|| {
                let rec = json::parse(line).ok()?;
                if rec.get("v")?.as_u64()? != u64::from(SCHEMA_VERSION) {
                    return None;
                }
                // Names a client may no longer use (or a forged record) drop
                // here, so compaction never rewrites them.
                let tenant = rec.get("tenant")?.as_str().filter(|t| valid_tenant(t))?;
                let gen = rec.get("gen")?.as_u64()?;
                let weights = hex_decode(rec.get("weights")?.as_str()?)?;
                Some((tenant.to_string(), RestoredTenant { gen, weights }))
            })();
            match parsed {
                Some((tenant, restored)) => {
                    out.tenants.insert(tenant, restored);
                }
                None => out.dropped += 1,
            }
        }
        out
    }

    /// Rewrites the file to one sealed record per tenant, atomically
    /// (sibling tmp + rename). Bounds file growth across long runs.
    pub fn compact(
        &self,
        tenants: &HashMap<String, RestoredTenant>,
    ) -> std::io::Result<()> {
        let mut names: Vec<&String> = tenants.keys().collect();
        names.sort();
        let mut text = String::new();
        for name in names {
            let t = &tenants[name];
            text.push_str(&ckpt::seal(&Self::record_body(name, t.gen, &t.weights)));
            text.push('\n');
        }
        if let Some(parent) = self.path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        ckpt::atomic_write(&self.path, text.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppf_trace::mutate;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("ppf-serve-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_then_load_round_trips_last_wins() {
        let dir = tmpdir("roundtrip");
        let ck = ShardCheckpoint::new(&dir, 0);
        ck.append("t000-a", 1, &[1, 2, 3], false).unwrap();
        ck.append("t001-b", 1, &[9, 8], false).unwrap();
        ck.append("t000-a", 2, &[4, 5, 6], false).unwrap();
        ck.append("t002-c", u64::MAX, &[7], false).unwrap();
        let r = ck.load();
        assert_eq!(r.dropped, 0);
        assert_eq!(r.tenants.len(), 3);
        assert_eq!(r.tenants["t000-a"], RestoredTenant { gen: 2, weights: vec![4, 5, 6] });
        assert_eq!(r.tenants["t001-b"].weights, vec![9, 8]);
        assert_eq!(r.tenants["t002-c"].gen, u64::MAX, "generations are exact to u64::MAX");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bitflipped_record_is_dropped_not_trusted() {
        let dir = tmpdir("bitflip");
        let ck = ShardCheckpoint::new(&dir, 1);
        ck.append("t000-a", 1, &[1, 2, 3], false).unwrap();
        ck.append("t000-a", 2, &[7, 7, 7], true).unwrap();
        let r = ck.load();
        assert_eq!(r.dropped, 1, "the corrupted generation fails its seal");
        assert_eq!(
            r.tenants["t000-a"].gen, 1,
            "recovery falls back to the last intact generation"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_dropped() {
        let dir = tmpdir("torn");
        let ck = ShardCheckpoint::new(&dir, 2);
        ck.append("t000-a", 1, &[1], false).unwrap();
        ck.append("t000-a", 2, &[2], false).unwrap();
        let text = std::fs::read_to_string(ck.path()).unwrap();
        std::fs::write(ck.path(), &text[..text.len() - 5]).unwrap();
        let r = ck.load();
        assert_eq!(r.dropped, 1);
        assert_eq!(r.tenants["t000-a"].gen, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_keeps_state_and_shrinks_file() {
        let dir = tmpdir("compact");
        let ck = ShardCheckpoint::new(&dir, 3);
        for gen in 1..=10 {
            ck.append("t000-a", gen, &[gen as u8; 16], false).unwrap();
        }
        let before = std::fs::metadata(ck.path()).unwrap().len();
        let r = ck.load();
        ck.compact(&r.tenants).unwrap();
        let after = std::fs::metadata(ck.path()).unwrap().len();
        assert!(after < before);
        let r2 = ck.load();
        assert_eq!(r2.dropped, 0);
        assert_eq!(r2.tenants["t000-a"], r.tenants["t000-a"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_files_never_panic_or_restore_unwritten_state() {
        let dir = tmpdir("mutate");
        let ck = ShardCheckpoint::new(&dir, 4);
        let written: [(&str, u64, Vec<u8>); 4] = [
            ("t000-a", 1, vec![1, 2, 3]),
            ("t001-b", 7, vec![0xfe, 0x00]),
            ("t000-a", 2, vec![4, 5, 6]),
            ("t001-b", 8, vec![0x10]),
        ];
        let mut files = Vec::new();
        for pair in written.chunks(2) {
            let _ = std::fs::remove_file(ck.path());
            for (tenant, gen, weights) in pair {
                ck.append(tenant, *gen, weights, false).unwrap();
            }
            files.push(std::fs::read(ck.path()).unwrap());
        }
        let load_only_written = |bytes: &[u8]| {
            std::fs::write(ck.path(), bytes).unwrap();
            for (tenant, r) in ck.load().tenants {
                assert!(
                    written.iter().any(|(t, g, w)| *t == tenant && *g == r.gen && *w == r.weights),
                    "restored {tenant} gen {} weights {:?}, which was never written",
                    r.gen,
                    r.weights
                );
            }
        };
        let file = &files[0];
        mutate::prefixes(file).for_each(load_only_written);
        mutate::bit_flips(file).for_each(|bytes| load_only_written(&bytes));
        mutate::splices(file, &files[1]).for_each(|bytes| load_only_written(&bytes));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sealed_but_malformed_records_are_dropped() {
        let dir = tmpdir("malformed");
        let ck = ShardCheckpoint::new(&dir, 5);
        // Correctly sealed, so only the body parser stands between these
        // records and a restore.
        for body in [
            // Multi-byte chars must not split mid-char.
            "{\"v\":1,\"tenant\":\"t000-a\",\"gen\":1,\"weights\":\"\u{20ac}\u{20ac}\"}",
            r#"{"v":1,"tenant":"t000-a","gen":12abc,"weights":"02"}"#,
            r#"{"v":1x,"tenant":"t000-a","gen":1,"weights":"02"}"#,
            r#"{"v":1,"tenant":"t000-a","gen":1,"weights":"02","tenant":"t001-b"}"#,
            r#"{"v":1,"tenant":"t000-a","gen":1,"weights":"02",}"#,
            r#"{"v":1,"tenant":"t000-a","gen":-1,"weights":"02"}"#,
            r#"{"v":1,"tenant":"t000-a","gen":18446744073709551616,"weights":"02"}"#,
        ] {
            std::fs::write(ck.path(), format!("{}\n", ckpt::seal(body))).unwrap();
            let r = ck.load();
            assert!(r.tenants.is_empty(), "{body} restored {:?}", r.tenants);
            assert_eq!(r.dropped, 1, "{body}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_with_unusable_tenant_names_are_dropped() {
        let dir = tmpdir("badname");
        let ck = ShardCheckpoint::new(&dir, 6);
        ck.append("t000-a", 1, &[1], false).unwrap();
        let forged = ckpt::seal(r#"{"v":1,"tenant":"t 001","gen":1,"weights":"02"}"#);
        let text = std::fs::read_to_string(ck.path()).unwrap() + &forged + "\n";
        std::fs::write(ck.path(), text).unwrap();
        let r = ck.load();
        assert_eq!(r.dropped, 1);
        assert_eq!(r.tenants.keys().collect::<Vec<_>>(), ["t000-a"]);
        ck.compact(&r.tenants).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_an_empty_fleet() {
        let dir = tmpdir("missing");
        let r = ShardCheckpoint::new(&dir, 9).load();
        assert!(r.tenants.is_empty());
        assert_eq!(r.dropped, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
