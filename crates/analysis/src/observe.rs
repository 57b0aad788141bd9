//! The one validating parser for every observability export.
//!
//! Every emitter in the workspace writes one flat JSON object per line that
//! opens with the shared envelope `{"v":2,"kind":"<kind>"`
//! ([`ppf_sim::observe::envelope`]). Each line is decoded by the workspace's
//! one JSON decoder, [`ppf_sim::json`], and then checked against the
//! envelope. A record is valid when:
//!
//! 1. it is one JSON object whose only string value is `kind` and whose
//!    other values are numbers;
//! 2. `v` equals [`SCHEMA_VERSION`];
//! 3. `kind` names a [`Kind`] and the record carries every key of that
//!    kind's row in [`Kind::required_keys`];
//! 4. for `span` records only, the span id and its `parent` tag agree with
//!    the taxonomy compiled into [`ppf_sim::Span`], and `stride >= 1`.
//!
//! Documents may mix kinds: the daemon's `OP_STATS` payload is one `serve`
//! line followed by `span` lines.

use ppf_sim::json::{self, Json};
use ppf_sim::observe::SCHEMA_VERSION;
use ppf_sim::Span;

/// What a record describes; the `kind` value of its envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A simulator interval snapshot (`IntervalSnapshot::to_jsonl`).
    Interval,
    /// One span's accumulated cost (`ppf_sim::prof::span_jsonl`).
    Span,
    /// One daemon flight-recorder event (`FlightRecorder::to_jsonl`).
    Flight,
    /// A daemon counters snapshot (`Counters::snapshot_jsonl`).
    Serve,
    /// A chaos-drill report (`DrillReport::to_jsonl`).
    Drill,
}

impl Kind {
    /// Every kind.
    pub const ALL: [Kind; 5] = [
        Kind::Interval,
        Kind::Span,
        Kind::Flight,
        Kind::Serve,
        Kind::Drill,
    ];

    /// The envelope's `kind` string.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Interval => "interval",
            Kind::Span => "span",
            Kind::Flight => "flight",
            Kind::Serve => "serve",
            Kind::Drill => "drill",
        }
    }

    /// The kind named `name`, if any.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Keys every record of this kind carries besides `v` and `kind`.
    #[rustfmt::skip]
    pub fn required_keys(self) -> &'static [&'static str] {
        match self {
            Kind::Interval => &[
                "core", "seq", "instr", "cycles", "ipc", "l2_mpki", "llc_mpki", "l2_acc", "l2_hit",
                "pf_issued", "pf_useful", "ppf_accept_l2", "ppf_accept_llc", "ppf_reject",
            ],
            Kind::Span => &["span", "calls", "wall_ns", "cycles", "stride"],
            Kind::Flight => &["at_ms", "event", "tenant", "detail", "accepted", "dur_us"],
            Kind::Serve => &[
                "elapsed_ms", "requests", "inline_scores", "candidates", "accepted", "rejected",
                "shed_overflow", "shed_quota", "degraded_replies", "deadline_misses",
                "tenant_restarts", "shard_replacements", "checkpoint_records",
                "checkpoint_bitflips", "checkpoint_drops", "warm_started_tenants", "p50_us",
                "p99_us",
            ],
            Kind::Drill => &[
                "requests", "p50_us", "p99_us", "max_us", "stalled_callers", "degraded", "shed",
                "deadline_misses", "tenant_restarts", "shard_replacements", "checkpoint_records",
                "checkpoint_bitflips", "checkpoint_drops", "warm_restored", "warm_matched",
                "warm_expected_mismatch", "warm_unexplained_mismatch",
            ],
        }
    }
}

/// One validated record: its kind plus the numeric fields in file order.
/// Exact integers survive to 2^53, far beyond any counter the exporters
/// produce.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    kind: Kind,
    fields: Vec<(String, f64)>,
}

impl Record {
    /// The record's kind.
    pub fn kind(&self) -> Kind {
        self.kind
    }

    /// Value of a numeric key, if present.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.fields.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// Value of a key the record's kind requires.
    ///
    /// # Panics
    ///
    /// Panics if the key is absent (validated records always carry their
    /// kind's required keys).
    pub fn req(&self, key: &str) -> f64 {
        self.get(key)
            .unwrap_or_else(|| panic!("required key {key:?} missing"))
    }

    /// All numeric fields in file order (`v` included, `kind` not).
    pub fn fields(&self) -> &[(String, f64)] {
        &self.fields
    }
}

/// Parses and validates one record.
///
/// # Errors
///
/// Returns a description of the first problem: malformed JSON, a string
/// value outside `kind`, a wrong or missing `v`, an unknown or missing
/// `kind`, a missing required key, or a span that contradicts the taxonomy.
pub fn parse_line(line: &str) -> Result<Record, String> {
    let Json::Obj(members) = json::parse(line).map_err(|e| e.to_string())? else {
        return Err("record is not a JSON object".to_string());
    };
    let mut kind = None;
    let mut fields = Vec::with_capacity(members.len());
    for (key, value) in members {
        if key == "kind" {
            let name = value.as_str().ok_or("kind is not a string")?;
            kind = Some(Kind::from_name(name).ok_or_else(|| format!("unknown kind {name:?}"))?);
        } else {
            let x = value.as_f64().ok_or_else(|| format!("value of {key:?} is not a number"))?;
            fields.push((key, x));
        }
    }
    let v = fields.iter().find(|(k, _)| k == "v").map(|&(_, v)| v);
    match v {
        None => return Err("missing schema version \"v\"".to_string()),
        Some(v) if v != f64::from(SCHEMA_VERSION) => {
            return Err(format!(
                "schema version {v} (parser understands {SCHEMA_VERSION})"
            ))
        }
        Some(_) => {}
    }
    let kind = kind.ok_or_else(|| "missing record \"kind\"".to_string())?;
    let rec = Record { kind, fields };
    if let Some(key) = kind.required_keys().iter().find(|k| rec.get(k).is_none()) {
        return Err(format!(
            "{} record is missing required key {key:?}",
            kind.name()
        ));
    }
    if kind == Kind::Span {
        check_span(&rec)?;
    }
    Ok(rec)
}

/// The span-specific checks: a known id, a stride of at least 1, and a
/// `parent` tag matching the taxonomy (or the top-down rollup would
/// silently mis-nest).
fn check_span(rec: &Record) -> Result<(), String> {
    let id = rec.req("span");
    if id < 0.0 || id.fract() != 0.0 || id > f64::from(u8::MAX) {
        return Err(format!("span id {id} is not a u8"));
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let span = Span::from_id(id as u64).ok_or_else(|| format!("unknown span id {id}"))?;
    let stride = rec.req("stride");
    if stride < 1.0 {
        return Err(format!("stride {stride} must be >= 1"));
    }
    #[allow(clippy::cast_precision_loss)]
    let expect = span.parent().map(|p| p.id() as f64);
    match rec.get("parent") {
        p if p == expect => Ok(()),
        None => Err(format!("span {:?} is missing its parent tag", span.name())),
        Some(p) => Err(format!(
            "span {:?} declares parent {p}, taxonomy says {expect:?}",
            span.name()
        )),
    }
}

/// Parses and validates a whole JSONL document, any mix of kinds (blank
/// lines skipped).
///
/// # Errors
///
/// Returns `line N: <why>` for the first bad line.
pub fn parse_document(text: &str) -> Result<Vec<Record>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(n, line)| parse_line(line).map_err(|e| format!("line {}: {e}", n + 1)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppf_sim::observe::envelope;

    fn line(kind: Kind) -> String {
        let mut s = envelope(kind.name());
        for key in kind.required_keys() {
            s.push_str(&format!(",\"{key}\":1"));
        }
        if kind == Kind::Span {
            s = s
                .replace("\"span\":1", "\"span\":2")
                .replace("\"stride\":1", "\"stride\":1,\"parent\":1");
        }
        s.push('}');
        s
    }

    #[test]
    fn every_kind_round_trips_its_table() {
        for kind in Kind::ALL {
            let rec = parse_line(&line(kind)).unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            assert_eq!(rec.kind(), kind);
            assert_eq!(Kind::from_name(kind.name()), Some(kind));
        }
        let doc = Kind::ALL.map(line).join("\n\n");
        assert_eq!(parse_document(&doc).unwrap().len(), Kind::ALL.len());
    }

    #[test]
    fn rejects_wrong_version_unknown_kind_and_missing_keys() {
        let good = line(Kind::Serve);
        let wrong_v = good.replacen(&format!("\"v\":{SCHEMA_VERSION}"), "\"v\":1", 1);
        assert!(parse_line(&wrong_v).unwrap_err().contains("schema version"));
        let unknown = good.replacen("\"serve\"", "\"gauge\"", 1);
        assert!(parse_line(&unknown).unwrap_err().contains("unknown kind"));
        for key in Kind::Drill.required_keys() {
            let missing = line(Kind::Drill).replacen(&format!(",\"{key}\":1"), "", 1);
            let err = parse_line(&missing).unwrap_err();
            assert!(err.contains(key), "{key}: {err}");
        }
        let no_kind = good.replacen(",\"kind\":\"serve\"", "", 1);
        assert!(parse_line(&no_kind).unwrap_err().contains("kind"));
        let twice = good.replacen('}', ",\"kind\":\"serve\"}", 1);
        assert!(parse_line(&twice).unwrap_err().contains("duplicate"));
    }
}
