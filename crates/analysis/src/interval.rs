//! Interval-telemetry aggregation over the `interval` records the
//! simulator's snapshots export ([`ppf_sim::IntervalSnapshot::to_jsonl`]),
//! parsed and validated by [`crate::observe`].
//!
//! Snapshots are *cumulative* from the start of the measurement region, so
//! phase behaviour comes from differencing consecutive records per core —
//! [`interval_deltas`] does that, and [`render_intervals`] turns the result
//! into the aligned per-interval table the `fig_telemetry` binary prints.

use crate::observe::{Kind, Record};
use crate::render::TextTable;

/// One per-interval row derived by differencing consecutive cumulative
/// snapshots of the same core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalDelta {
    /// Core index.
    pub core: u32,
    /// Snapshot sequence number the interval *ends* at.
    pub seq: u64,
    /// Instructions retired in this interval.
    pub instructions: f64,
    /// Cycles elapsed in this interval.
    pub cycles: f64,
    /// IPC of this interval alone.
    pub ipc: f64,
    /// L2 demand misses per kilo-instruction in this interval.
    pub l2_mpki: f64,
    /// Prefetches issued in this interval.
    pub issued: f64,
    /// Timely useful prefetches in this interval.
    pub useful: f64,
    /// Filter accepts (either level) in this interval.
    pub ppf_accepts: f64,
    /// Filter rejects in this interval.
    pub ppf_rejects: f64,
}

/// Differences consecutive `interval` records per core into per-interval
/// rows; records of other kinds are skipped. Records may interleave cores;
/// within one core they must be in `seq` order (the exporter guarantees it).
pub fn interval_deltas(records: &[Record]) -> Vec<IntervalDelta> {
    let mut out = Vec::new();
    let mut cores: Vec<(u32, &Record)> = Vec::new();
    for rec in records.iter().filter(|r| r.kind() == Kind::Interval) {
        let core = rec.req("core") as u32;
        let prev = cores.iter().find(|(c, _)| *c == core).map(|&(_, p)| p);
        let d = |key: &str| rec.req(key) - prev.map_or(0.0, |p| p.req(key));
        let instructions = d("instr");
        let cycles = d("cycles");
        let misses = d("l2_acc") - d("l2_hit");
        out.push(IntervalDelta {
            core,
            seq: rec.req("seq") as u64,
            instructions,
            cycles,
            ipc: if cycles > 0.0 { instructions / cycles } else { 0.0 },
            l2_mpki: if instructions > 0.0 { misses * 1000.0 / instructions } else { 0.0 },
            issued: d("pf_issued"),
            useful: d("pf_useful"),
            ppf_accepts: d("ppf_accept_l2") + d("ppf_accept_llc"),
            ppf_rejects: d("ppf_reject"),
        });
        match cores.iter_mut().find(|(c, _)| *c == core) {
            Some(slot) => slot.1 = rec,
            None => cores.push((core, rec)),
        }
    }
    out
}

/// Renders per-interval rows as an aligned table (the phase-behaviour view
/// `fig_telemetry` prints).
pub fn render_intervals(records: &[Record]) -> String {
    let mut t = TextTable::new(vec![
        "core", "seq", "instr", "ipc", "l2_mpki", "pf_issued", "pf_useful", "ppf_acc", "ppf_rej",
    ]);
    for d in interval_deltas(records) {
        t.row(vec![
            d.core.to_string(),
            d.seq.to_string(),
            format!("{:.0}", d.instructions),
            format!("{:.3}", d.ipc),
            format!("{:.3}", d.l2_mpki),
            format!("{:.0}", d.issued),
            format!("{:.0}", d.useful),
            format!("{:.0}", d.ppf_accepts),
            format!("{:.0}", d.ppf_rejects),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::{parse_document, parse_line};
    use ppf_sim::observe::{envelope, SCHEMA_VERSION};
    use ppf_sim::{CacheStats, FilterCounters, IntervalSnapshot, PrefetchStats};

    fn snapshot(core: u32, seq: u64) -> IntervalSnapshot {
        IntervalSnapshot {
            core,
            seq,
            instructions: (seq + 1) * 1_000,
            cycles: (seq + 1) * 2_000,
            l2: CacheStats {
                demand_accesses: (seq + 1) * 100,
                demand_hits: (seq + 1) * 60,
                ..Default::default()
            },
            llc_demand_misses: (seq + 1) * 5,
            prefetch: PrefetchStats {
                issued: (seq + 1) * 40,
                useful: (seq + 1) * 30,
                ..Default::default()
            },
            filter: FilterCounters {
                inferences: (seq + 1) * 50,
                accepted_l2: (seq + 1) * 25,
                accepted_llc: (seq + 1) * 10,
                rejected: (seq + 1) * 15,
                ..Default::default()
            },
        }
    }

    #[test]
    fn parses_exporter_output_roundtrip() {
        let s = snapshot(0, 3);
        let rec = parse_line(&s.to_jsonl()).expect("exporter output validates");
        assert_eq!(rec.kind(), Kind::Interval);
        assert_eq!(rec.req("core"), 0.0);
        assert_eq!(rec.req("seq"), 3.0);
        assert_eq!(rec.req("instr"), 4_000.0);
        assert_eq!(rec.req("pf_issued"), 160.0);
        assert_eq!(rec.get("ppf_accept_l2"), Some(100.0));
        // Derived floats survive the round trip at 6-decimal precision.
        assert!((rec.req("ipc") - 0.5).abs() < 1e-6);
    }

    #[test]
    fn rejects_malformed_lines() {
        let good = snapshot(0, 0).to_jsonl();
        let span = format!(
            "{},\"span\":0,\"calls\":1,\"wall_ns\":1,\"cycles\":1,\"stride\":1}}",
            envelope("span")
        );
        assert!(parse_line(&span).is_ok());
        assert!(parse_line("not json").is_err());
        assert!(parse_line("{\"a\" 1}").is_err());
        assert!(parse_line("{a:1}").is_err());
        for bad in [
            good.replacen("\"core\":0", "\"core\":\"0\"", 1),
            good.replacen("\"seq\":0", "\"seq\":0,\"seq\":1", 1),
            // Not JSON: an empty member, a trailing comma, and numbers
            // outside the grammar or the f64 range.
            span.replacen(',', ",,", 1).replacen('}', ",}", 1),
            span.replacen(',', ",,", 1),
            good.replacen('}', ",}", 1),
            span.replacen("\"calls\":1", "\"calls\":NaN", 1),
            span.replacen("\"calls\":1", "\"calls\":inf", 1),
            span.replacen("\"wall_ns\":1", "\"wall_ns\":1e999", 1),
            span.replacen("\"calls\":1", "\"calls\":+1", 1),
            good.replacen("\"instr\":1000", "\"instr\":01000", 1),
        ] {
            assert!(bad != good && bad != span, "the case must differ from a valid line");
            assert!(parse_line(&bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn validation_requires_version_and_keys() {
        let good = snapshot(0, 0).to_jsonl();
        let err = parse_line(&good.replacen(",\"seq\":0", "", 1)).unwrap_err();
        assert!(err.contains("seq"), "{err}");
        let version = format!("\"v\":{SCHEMA_VERSION}");
        let err = parse_line(&good.replacen(&version, "\"v\":99", 1)).unwrap_err();
        assert!(err.contains("version"), "{err}");
        assert!(parse_line(&good.replacen(&format!("{version},"), "", 1)).is_err());
    }

    #[test]
    fn jsonl_reports_offending_line() {
        let good = snapshot(0, 0).to_jsonl();
        let doc = format!("{good}\n\n{{\"v\":{SCHEMA_VERSION},\"kind\":\"interval\"}}\n");
        let err = parse_document(&doc).unwrap_err();
        assert!(err.starts_with("line 3:"), "{err}");
        assert_eq!(parse_document(&good).unwrap().len(), 1);
    }

    #[test]
    fn deltas_difference_cumulative_counters_per_core() {
        // Interleave two cores to prove differencing pairs by core.
        let doc: Vec<String> = vec![
            snapshot(0, 0).to_jsonl(),
            snapshot(1, 0).to_jsonl(),
            snapshot(0, 1).to_jsonl(),
            snapshot(1, 1).to_jsonl(),
        ];
        let records = parse_document(&doc.join("\n")).unwrap();
        let deltas = interval_deltas(&records);
        assert_eq!(deltas.len(), 4);
        for d in &deltas {
            // snapshot() grows every counter linearly, so every interval
            // (including the first, differenced against zero) is identical.
            assert_eq!(d.instructions, 1_000.0);
            assert_eq!(d.cycles, 2_000.0);
            assert!((d.ipc - 0.5).abs() < 1e-12);
            assert_eq!(d.issued, 40.0);
            assert_eq!(d.useful, 30.0);
            assert_eq!(d.ppf_accepts, 35.0);
            assert_eq!(d.ppf_rejects, 15.0);
            assert!((d.l2_mpki - 40.0).abs() < 1e-9);
        }
        assert_eq!(deltas[2].core, 0);
        assert_eq!(deltas[2].seq, 1);
    }

    #[test]
    fn renders_one_row_per_interval() {
        let doc = [snapshot(0, 0).to_jsonl(), snapshot(0, 1).to_jsonl()].join("\n");
        let records = parse_document(&doc).unwrap();
        let out = render_intervals(&records);
        assert!(out.contains("l2_mpki"), "{out}");
        // Header + separator + 2 rows.
        assert_eq!(out.lines().count(), 4, "{out}");
    }
}
