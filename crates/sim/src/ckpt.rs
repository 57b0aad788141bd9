//! Shared crash-safe JSONL checkpoint substrate.
//!
//! Both the figure harness's sweeps (`ppf_bench::sweep`) and the serving
//! daemon (`ppf-serve`) persist state as append-only JSONL files and
//! must survive the two corruptions a crash actually produces:
//!
//! * **Torn tails.** A process killed mid-append leaves a final line with no
//!   terminating newline (or half a record). [`load_tolerant`] drops that
//!   tail, reports it, and keeps every complete line — a torn tail must
//!   never fail a whole resume.
//! * **Bit rot / interleaved writers.** Every record is *sealed* with a
//!   CRC-32 over its body ([`seal`]); [`check`] rejects any line whose body
//!   no longer matches. An abandoned (watchdog-replaced) shard thread that
//!   wakes up and races an append can interleave bytes mid-line — the CRC
//!   turns that into a dropped record instead of silent corruption.
//!
//! Whole-file rewrites (sweep truncation, serve compaction) go through
//! [`atomic_write`]: write to a temp file in the same directory, fsync,
//! rename — a crash leaves either the old file or the new one, never a
//! partial mix.
//!
//! A line that passes [`check`] is one JSON object (the `crc` field plus
//! the writer's fields); loaders decode it with [`crate::json::parse`] and
//! read their fields from the object. Writers splice string values
//! unescaped, so no value may contain `"` or `\`.

use std::fs::{self, File};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) lookup table.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of a byte slice — the checksum sealing every checkpoint
/// record.
pub fn crc32(bytes: &[u8]) -> u32 {
    !bytes.iter().fold(!0u32, |c, &b| CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8))
}

/// The field prefix every sealed line starts with.
const SEAL_PREFIX: &str = "{\"crc\":\"";

/// Seals a one-line JSON object with a leading CRC field.
///
/// `body` must be a single-line `{...}` object; the result is
/// `{"crc":"xxxxxxxx",<body without its leading brace>` where the checksum
/// covers exactly those remaining bytes. [`check`] is the inverse.
///
/// # Panics
///
/// Panics (debug) if `body` is not a braced single-line object.
pub fn seal(body: &str) -> String {
    debug_assert!(
        body.starts_with('{') && body.ends_with('}') && !body.contains('\n'),
        "seal() expects a one-line JSON object, got {body:?}"
    );
    let rest = &body[1..];
    format!("{SEAL_PREFIX}{:08x}\",{rest}", crc32(rest.as_bytes()))
}

/// Why a sealed line failed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SealError {
    /// The line does not start with a `{"crc":"xxxxxxxx",` field.
    Unsealed,
    /// The stored checksum does not match the body.
    Mismatch,
}

/// Validates a line produced by [`seal`]. The line still contains every
/// original field (plus `crc`), so callers decode it whole.
///
/// # Errors
///
/// [`SealError::Unsealed`] when the CRC prefix is absent or malformed,
/// [`SealError::Mismatch`] when the body was altered after sealing.
pub fn check(line: &str) -> Result<(), SealError> {
    let rest = line.strip_prefix(SEAL_PREFIX).ok_or(SealError::Unsealed)?;
    let (hex, body) = rest.split_at_checked(8).ok_or(SealError::Unsealed)?;
    // Only seal()'s lowercase form: `from_str_radix` alone also takes
    // `A`-`F`, so a bit flip that changes a digit's case would pass.
    if !hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return Err(SealError::Unsealed);
    }
    let stored = u32::from_str_radix(hex, 16).map_err(|_| SealError::Unsealed)?;
    let body = body.strip_prefix("\",").ok_or(SealError::Unsealed)?;
    if crc32(body.as_bytes()) == stored {
        Ok(())
    } else {
        Err(SealError::Mismatch)
    }
}

/// What [`load_tolerant`] recovered from a checkpoint file.
#[derive(Debug, Default)]
pub struct JsonlLoad {
    /// Every line that passed [`check`], in file order.
    pub lines: Vec<String>,
    /// A final line with no terminating newline was dropped.
    pub torn_tail: bool,
    /// Complete lines dropped because the CRC seal was absent or wrong.
    pub dropped_crc: usize,
}

/// Reads a sealed JSONL file, tolerating the corruptions a crash produces:
/// a missing file loads as empty, a torn final line is dropped (and
/// flagged), and any line failing its CRC seal is dropped (and counted).
/// Empty lines are ignored. Invalid UTF-8 is read lossily, so a rotten
/// byte fails only its own line's seal instead of the whole file.
///
/// # Errors
///
/// Propagates I/O errors other than `NotFound`.
pub fn load_tolerant(path: &Path) -> io::Result<JsonlLoad> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(JsonlLoad::default()),
        Err(e) => return Err(e),
    };
    let text = String::from_utf8_lossy(&bytes);
    let mut out = JsonlLoad::default();
    let mut body: &str = &text;
    if !text.is_empty() && !text.ends_with('\n') {
        // A crash mid-append: everything after the last newline is the torn
        // tail. Complete lines before it are still good.
        out.torn_tail = true;
        body = match text.rfind('\n') {
            Some(nl) => &text[..=nl],
            None => "",
        };
    }
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        match check(line) {
            Ok(()) => out.lines.push(line.to_string()),
            Err(_) => out.dropped_crc += 1,
        }
    }
    Ok(out)
}

/// The temp path [`atomic_write`] stages through (same directory as the
/// target, so the rename cannot cross filesystems).
fn staging_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".tmp.{}", std::process::id()));
    path.with_file_name(name)
}

/// Replaces `path` with `bytes` atomically: write a sibling temp file, fsync
/// it, rename over the target. A crash at any point leaves the old file or
/// the complete new one.
///
/// # Errors
///
/// Propagates filesystem errors (the temp file is cleaned up on failure).
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = staging_path(path);
    let result = (|| {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use ppf_trace::mutate;

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn seal_check_roundtrip() {
        let line = seal(r#"{"v":2,"key":"a","data":"00ff"}"#);
        assert!(line.starts_with(SEAL_PREFIX), "{line}");
        assert!(line.contains("\"key\":\"a\""), "original fields survive: {line}");
        check(&line).expect("sealed line validates");
    }

    #[test]
    fn check_rejects_tampering() {
        let line = seal(r#"{"v":2,"key":"a","data":"00ff"}"#);
        let flipped = line.replace("00ff", "01ff");
        assert_eq!(check(&flipped), Err(SealError::Mismatch));
        assert_eq!(check("{\"v\":2}"), Err(SealError::Unsealed));
        assert_eq!(check(""), Err(SealError::Unsealed));
        assert_eq!(check("{\"crc\":\"zzzzzzzz\",\"v\":2}"), Err(SealError::Unsealed));
        // Truncated mid-prefix.
        assert_eq!(check(&line[..10]), Err(SealError::Unsealed));
    }

    #[test]
    fn check_rejects_every_prefix_and_every_single_bit_flip() {
        let line = seal(r#"{"v":1,"tenant":"t003-619.lbm_s","gen":4,"weights":"00ff7f80"}"#);
        let other = seal(r#"{"v":1,"tenant":"t001-605.mcf_s","gen":9,"weights":"7f"}"#);
        for cut in mutate::prefixes(line.as_bytes()) {
            let cut = std::str::from_utf8(cut).unwrap();
            assert!(check(cut).is_err(), "prefix of {} bytes passed", cut.len());
        }
        for (bit, bytes) in mutate::bit_flips(line.as_bytes()).enumerate() {
            // Read the way load_tolerant reads a file: lossily.
            let flipped = String::from_utf8_lossy(&bytes);
            assert!(check(&flipped).is_err(), "flip of bit {bit} passed: {flipped}");
        }
        // A splice of two sealed lines passes only if it is one of them.
        for bytes in mutate::splices(line.as_bytes(), other.as_bytes()) {
            let spliced = String::from_utf8_lossy(&bytes);
            if spliced != line && spliced != other {
                assert!(check(&spliced).is_err(), "splice passed: {spliced}");
            }
        }
    }

    #[test]
    fn field_readers_take_the_named_field() {
        let line = seal(r#"{"v":2,"key":"619.lbm_s/PPF","wall_ms":17,"data":"3ff0~"}"#);
        let rec = json::parse(&line).expect("a sealed line is one JSON object");
        let num = |key| rec.get(key).and_then(Json::as_u64);
        let text = |key| rec.get(key).and_then(Json::as_str);
        assert_eq!(num("v"), Some(2));
        assert_eq!(num("wall_ms"), Some(17));
        assert_eq!(text("key"), Some("619.lbm_s/PPF"));
        assert_eq!(text("data"), Some("3ff0~"));
        assert_eq!(text("crc").map(str::len), Some(8));
        assert_eq!(text("missing"), None);
        assert_eq!(num("key"), None, "a string is not a number");
        // A number with a trailing non-digit, a key given twice and an
        // unterminated string are not JSON, so no field is read from them.
        for bad in [
            r#"{"v":1,"tenant":"t000-a","gen":12abc,"weights":"02"}"#,
            r#"{"v":1x,"tenant":"t000-a","gen":1,"weights":"02"}"#,
            r#"{"v":1,"tenant":"t000-a","gen":1,"weights":"02","tenant":"t001-b"}"#,
            r#"{"key":"unterminated"#,
        ] {
            assert!(json::parse(bad).is_err(), "{bad}");
        }
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ppf-ckpt-{name}-{}", std::process::id()))
    }

    #[test]
    fn load_tolerant_drops_torn_tail_and_bad_crc() {
        let path = tmp("torn");
        let good1 = seal(r#"{"k":"a"}"#);
        let good2 = seal(r#"{"k":"b"}"#);
        let bad = seal(r#"{"k":"c"}"#).replace("\"c\"", "\"X\"");
        let torn = &good2[..good2.len() - 4];
        fs::write(&path, format!("{good1}\n{bad}\n{good2}\n{torn}")).unwrap();
        let load = load_tolerant(&path).unwrap();
        assert_eq!(load.lines, vec![good1, good2]);
        assert!(load.torn_tail);
        assert_eq!(load.dropped_crc, 1);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn load_tolerant_missing_file_is_empty() {
        let load = load_tolerant(&tmp("never-written")).unwrap();
        assert!(load.lines.is_empty());
        assert!(!load.torn_tail);
        assert_eq!(load.dropped_crc, 0);
    }

    #[test]
    fn load_tolerant_single_torn_line() {
        let path = tmp("only-torn");
        fs::write(&path, "{\"crc\":\"0000").unwrap();
        let load = load_tolerant(&path).unwrap();
        assert!(load.lines.is_empty());
        assert!(load.torn_tail);
        assert_eq!(load.dropped_crc, 0);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn atomic_write_replaces_contents() {
        let path = tmp("atomic");
        atomic_write(&path, b"first\n").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first\n");
        atomic_write(&path, b"second\n").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second\n");
        assert!(!staging_path(&path).exists(), "staging file cleaned up");
        let _ = fs::remove_file(&path);
    }
}
