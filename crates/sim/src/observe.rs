//! The one observability layer shared by the simulator and the daemon:
//! one cargo feature, one runtime switch, one ring type, one envelope.
//!
//! # Gating
//!
//! Every hook is double-gated so the default build pays nothing:
//!
//! 1. the `observe` cargo feature — without it `cfg!` folds every guard to
//!    `false` and the hook bodies are dead-code-eliminated;
//! 2. the `PPF_OBSERVE` environment variable at runtime, a comma-separated
//!    token list read once per process by [`from_env`]:
//!
//! | token            | turns on                                          |
//! |------------------|---------------------------------------------------|
//! | `intervals`      | interval snapshots every [`DEFAULT_INTERVAL`] instructions, the event trace, PPF decision introspection, the daemon's snapshot export |
//! | `intervals=<N>`  | the same, snapshotting every `N` instructions      |
//! | `spans`          | span profiling, sampling every [`DEFAULT_STRIDE`] ticks, and the daemon's span tables |
//! | `spans=<N>`      | the same, sampling every `N` ticks                 |
//! | `off`, empty     | nothing (as when unset)                            |
//!
//! A malformed number warns and falls back to the token's default;
//! recording too often is recoverable, silently dropping requested output
//! is not. An unknown token warns and is ignored. Exports land under
//! [`export_dir`] (`PPF_OBSERVE_DIR`, default [`DEFAULT_DIR`]).
//!
//! # Envelope
//!
//! Every exported JSONL record is one flat object that starts with
//! `{"v":2,"kind":"<kind>"` ([`envelope`]); `kind` is the only
//! string-valued key, everything after it is numeric. The kinds are
//! `interval`, `span`, `flight`, `serve` and `drill`;
//! `ppf_analysis::observe` holds the one validating parser.

use std::path::PathBuf;
use std::sync::OnceLock;

/// Version stamped into every exported record.
pub const SCHEMA_VERSION: u32 = 2;

/// Retired instructions per core between interval snapshots when
/// `intervals` carries no explicit period. A multiple of the windowed-IPC
/// sample size so the two sampling grids align.
pub const DEFAULT_INTERVAL: u64 = 100_000;

/// Executed ticks between span samples when `spans` carries no explicit
/// stride. At ~6 stamps per sampled tick this keeps the overhead well under
/// the 5% budget `fig_profile` enforces.
pub const DEFAULT_STRIDE: u64 = 64;

/// Export directory when `PPF_OBSERVE_DIR` is unset.
pub const DEFAULT_DIR: &str = "results/observe";

/// What `PPF_OBSERVE` turned on; `0` means off for that stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObserveConfig {
    /// Retired instructions between interval snapshots.
    pub interval: u64,
    /// Executed ticks between span samples.
    pub stride: u64,
}

/// Pure parser behind [`from_env`]: `raw` is the variable's value, `None`
/// when unset. Returns the configuration and one warning per token it had
/// to default or ignore.
pub fn parse(raw: Option<&str>) -> (ObserveConfig, Vec<String>) {
    let mut cfg = ObserveConfig::default();
    let mut warnings = Vec::new();
    for token in raw.unwrap_or("").split(',') {
        let token = token.trim().to_ascii_lowercase();
        let (name, value) = match token.split_once('=') {
            Some((n, v)) => (n.trim(), Some(v.trim())),
            None => (token.as_str(), None),
        };
        let (slot, default, unit) = match name {
            "" | "off" => continue,
            "intervals" => (&mut cfg.interval, DEFAULT_INTERVAL, "instructions"),
            "spans" => (&mut cfg.stride, DEFAULT_STRIDE, "ticks"),
            _ => {
                warnings.push(format!("PPF_OBSERVE: unknown token {token:?} ignored"));
                continue;
            }
        };
        *slot = match value.map(str::parse::<u64>) {
            None => default,
            Some(Ok(n)) => n,
            Some(Err(_)) => {
                warnings.push(format!(
                    "PPF_OBSERVE: {token:?} is not a number; {name} every {default} {unit}"
                ));
                default
            }
        };
    }
    (cfg, warnings)
}

/// The process's `PPF_OBSERVE` setting, parsed (and its warnings printed)
/// once. Always all-off when the `observe` feature is not compiled in.
pub fn from_env() -> ObserveConfig {
    if !cfg!(feature = "observe") {
        return ObserveConfig::default();
    }
    static CONFIG: OnceLock<ObserveConfig> = OnceLock::new();
    *CONFIG.get_or_init(|| {
        let raw = std::env::var("PPF_OBSERVE").ok();
        let (cfg, warnings) = parse(raw.as_deref());
        for w in warnings {
            eprintln!("warning: {w}");
        }
        cfg
    })
}

/// Resolves the export directory from `PPF_OBSERVE_DIR`.
pub fn export_dir() -> PathBuf {
    std::env::var("PPF_OBSERVE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| DEFAULT_DIR.into())
}

/// Makes an export label filesystem-safe (sweep keys contain `/`).
pub fn sanitize(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// The opening of every exported record, `{"v":2,"kind":"<kind>"`; the
/// emitter appends `,"key":number` pairs and the closing brace.
pub fn envelope(kind: &str) -> String {
    format!("{{\"v\":{SCHEMA_VERSION},\"kind\":\"{kind}\"")
}

/// A bounded ring that overwrites its oldest entry once full. Pushes never
/// allocate after construction.
#[derive(Debug, Clone)]
pub struct Ring<T: Copy> {
    buf: Vec<T>,
    capacity: usize,
    /// Index of the oldest entry once the ring is full.
    head: usize,
    /// Entries ever pushed (>= `len()`).
    total: u64,
}

impl<T: Copy> Ring<T> {
    /// Creates a ring retaining up to `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring needs capacity");
        Self {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            total: 0,
        }
    }

    /// Appends an entry, overwriting the oldest once at capacity.
    #[inline]
    pub fn push(&mut self, item: T) {
        if self.buf.len() < self.capacity {
            self.buf.push(item);
        } else {
            self.buf[self.head] = item;
            self.head = (self.head + 1) % self.capacity;
        }
        self.total += 1;
    }

    /// Entries currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Entries ever pushed, including overwritten ones.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Entries lost to wrapping.
    pub fn dropped(&self) -> u64 {
        self.total - self.len() as u64
    }

    /// Iterates retained entries oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }

    /// The most recent entry.
    pub fn last(&self) -> Option<&T> {
        if self.head == 0 {
            self.buf.last()
        } else {
            Some(&self.buf[self.head - 1])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_switch_parses_every_form() {
        let on = |interval, stride| ObserveConfig { interval, stride };
        let cases: [(Option<&str>, ObserveConfig, usize); 11] = [
            (None, on(0, 0), 0),
            (Some(""), on(0, 0), 0),
            (Some("off"), on(0, 0), 0),
            (Some("intervals"), on(DEFAULT_INTERVAL, 0), 0),
            (Some("intervals=25000"), on(25_000, 0), 0),
            (Some("spans=16"), on(0, 16), 0),
            (
                Some(" Intervals , spans "),
                on(DEFAULT_INTERVAL, DEFAULT_STRIDE),
                0,
            ),
            (Some("intervals=5000,spans=8"), on(5_000, 8), 0),
            (Some("intervals,bogus"), on(DEFAULT_INTERVAL, 0), 1),
            (Some("intervals=lots"), on(DEFAULT_INTERVAL, 0), 1),
            (Some("spans=-3"), on(0, DEFAULT_STRIDE), 1),
        ];
        for (raw, want, warnings) in cases {
            let (got, warned) = parse(raw);
            assert_eq!(got, want, "{raw:?}");
            assert_eq!(warned.len(), warnings, "{raw:?}: {warned:?}");
        }
    }

    #[test]
    fn envelope_opens_every_record() {
        assert_eq!(
            envelope("span"),
            format!("{{\"v\":{SCHEMA_VERSION},\"kind\":\"span\"")
        );
    }
}
