//! Span tables: flat and top-down cost-center rendering over the `span`
//! records the self-profiler ([`ppf_sim::prof`]) exports, parsed and
//! validated by [`crate::observe`].
//!
//! Records carry *sampled* wall time: fine-grained tick spans are stamped
//! once every `stride` executed ticks, so rendered figures scale
//! `calls`/`wall_ns` by the record's stride to estimate full-run cost. The
//! root `run_loop` span is always recorded at stride 1 and anchors the
//! percentage column and the coverage check. Every function here takes a
//! whole document and skips records of other kinds, so a mixed `OP_STATS`
//! payload renders as-is.

use crate::observe::{Kind, Record};
use crate::render::TextTable;
use ppf_sim::Span;

/// The typed view of one `span` record: a span's accumulated counters,
/// plus the sampling stride they were collected under and (for serve-side
/// tables) the shard that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// The instrumented span.
    pub span: Span,
    /// Sampled call count.
    pub calls: u64,
    /// Sampled wall time, stamp-cost-corrected, in nanoseconds.
    pub wall_ns: u64,
    /// Simulated cycles attributed to the span (0 for serve-side spans).
    pub cycles: u64,
    /// Sampling stride the counters were collected under (1 = every call).
    pub stride: u64,
    /// Originating shard for serve-side tables, if tagged.
    pub shard: Option<u64>,
}

impl SpanRecord {
    /// Full-run wall-time estimate: sampled wall scaled by the stride.
    pub fn est_wall_ns(&self) -> u64 {
        self.wall_ns.saturating_mul(self.stride.max(1))
    }

    /// Full-run call-count estimate: sampled calls scaled by the stride.
    pub fn est_calls(&self) -> u64 {
        self.calls.saturating_mul(self.stride.max(1))
    }

    /// The typed view of `rec`, or `None` if it is not a `span` record.
    /// The parser already checked the span id and stride.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    pub fn from_record(rec: &Record) -> Option<SpanRecord> {
        if rec.kind() != Kind::Span {
            return None;
        }
        Some(SpanRecord {
            span: Span::from_id(rec.req("span") as u64)?,
            calls: rec.req("calls") as u64,
            wall_ns: rec.req("wall_ns") as u64,
            cycles: rec.req("cycles") as u64,
            stride: rec.req("stride") as u64,
            shard: rec.get("shard").map(|s| s as u64),
        })
    }
}

/// Sums the `span` records per span across shards/threads into one row
/// each, preserving taxonomy order.
fn aggregate(records: &[Record]) -> Vec<SpanRecord> {
    let records: Vec<SpanRecord> = records.iter().filter_map(SpanRecord::from_record).collect();
    let mut out: Vec<SpanRecord> = Vec::new();
    for span in Span::ALL {
        let mut agg: Option<SpanRecord> = None;
        for r in records.iter().filter(|r| r.span == span) {
            let a = agg.get_or_insert(SpanRecord {
                span,
                calls: 0,
                wall_ns: 0,
                cycles: 0,
                stride: r.stride,
                shard: None,
            });
            // Mixed strides per span never happen in one export; guard by
            // folding everything to full-run estimates if they do.
            if a.stride == r.stride {
                a.calls += r.calls;
                a.wall_ns += r.wall_ns;
            } else {
                a.calls = a.est_calls() + r.est_calls();
                a.wall_ns = a.est_wall_ns() + r.est_wall_ns();
                a.stride = 1;
            }
            a.cycles += r.cycles;
        }
        if let Some(a) = agg {
            out.push(a);
        }
    }
    out
}

/// Rescales the sampled tick subtree so it never exceeds the measured
/// stride-1 `run_loop` root. Stride-scaled estimates of sampled ticks carry
/// a small upward bias (the rarely-taken instrumentation path pays branch
/// misses no calibration loop reproduces), so when the `tick` estimate
/// overshoots the exactly-measured root, every span under `tick` is scaled
/// by `run_loop / tick` — relative shares within the subtree are unchanged.
fn normalized(mut agg: Vec<SpanRecord>) -> Vec<SpanRecord> {
    let est = |agg: &[SpanRecord], span: Span| {
        agg.iter().find(|r| r.span == span).map_or(0, SpanRecord::est_wall_ns)
    };
    let root = est(&agg, Span::RunLoop);
    let tick = est(&agg, Span::Tick);
    if root > 0 && tick > root {
        #[allow(clippy::cast_precision_loss)]
        let factor = root as f64 / tick as f64;
        for r in &mut agg {
            let mut cur = r.span;
            let in_tick_subtree = loop {
                if cur == Span::Tick {
                    break true;
                }
                match cur.parent() {
                    Some(p) => cur = p,
                    None => break false,
                }
            };
            if in_tick_subtree {
                #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                {
                    r.wall_ns = (r.wall_ns as f64 * factor) as u64;
                }
            }
        }
    }
    agg
}

/// Total estimated wall across root spans (spans with no parent), the
/// denominator for every percentage column.
fn total_wall_ns(agg: &[SpanRecord]) -> u64 {
    agg.iter().filter(|r| r.span.parent().is_none()).map(SpanRecord::est_wall_ns).sum()
}

fn fmt_ms(ns: u64) -> String {
    #[allow(clippy::cast_precision_loss)]
    let ms = ns as f64 / 1e6;
    format!("{ms:.2}")
}

fn fmt_pct(part: u64, total: u64) -> String {
    if total == 0 {
        return "-".to_string();
    }
    #[allow(clippy::cast_precision_loss)]
    let pct = part as f64 / total as f64 * 100.0;
    format!("{pct:.1}%")
}

/// Renders the flat cost-center table: one row per span, ranked by
/// estimated wall time, with the share of root-span wall time.
pub fn render_flat(records: &[Record]) -> String {
    let mut agg = normalized(aggregate(records));
    let total = total_wall_ns(&agg);
    agg.sort_by_key(|r| std::cmp::Reverse(r.est_wall_ns()));
    let mut t = TextTable::new(vec!["span", "est calls", "est wall ms", "ns/call", "cycles", "% total"]);
    for r in &agg {
        let per_call = r.wall_ns.checked_div(r.calls).unwrap_or(0);
        t.row(vec![
            r.span.name().to_string(),
            r.est_calls().to_string(),
            fmt_ms(r.est_wall_ns()),
            per_call.to_string(),
            r.cycles.to_string(),
            fmt_pct(r.est_wall_ns(), total),
        ]);
    }
    format!("flat cost centers (stride-scaled estimates)\n{}", t.render())
}

/// Renders the hierarchical rollup: each span nested under its parent,
/// with inclusive and self time (inclusive minus measured children).
pub fn render_topdown(records: &[Record]) -> String {
    let agg = normalized(aggregate(records));
    let total = total_wall_ns(&agg);
    let mut t = TextTable::new(vec!["span", "incl ms", "self ms", "% total"]);
    fn visit(t: &mut TextTable, agg: &[SpanRecord], span: Span, depth: usize, total: u64) {
        let Some(r) = agg.iter().find(|r| r.span == span) else { return };
        let kids: u64 = agg
            .iter()
            .filter(|c| c.span.parent() == Some(span))
            .map(SpanRecord::est_wall_ns)
            .sum();
        let incl = r.est_wall_ns();
        t.row(vec![
            format!("{}{}", "  ".repeat(depth), span.name()),
            fmt_ms(incl),
            fmt_ms(incl.saturating_sub(kids)),
            fmt_pct(incl, total),
        ]);
        for child in Span::ALL {
            if child.parent() == Some(span) {
                visit(t, agg, child, depth + 1, total);
            }
        }
    }
    for root in Span::ALL {
        if root.parent().is_none() {
            visit(&mut t, &agg, root, 0, total);
        }
    }
    format!("top-down rollup\n{}", t.render())
}

/// Fraction of the root `run_loop` wall time that its direct children
/// account for (stride-scaled, clamped to 1.0). `None` without a root
/// record. This is the "spans cover >= 90% of measured wall time" figure
/// `fig_profile` (and so the observe gate) checks.
pub fn coverage(records: &[Record]) -> Option<f64> {
    let agg = aggregate(records);
    let root = agg.iter().find(|r| r.span == Span::RunLoop)?;
    if root.wall_ns == 0 {
        return None;
    }
    let kids: u64 = agg
        .iter()
        .filter(|c| c.span.parent() == Some(Span::RunLoop))
        .map(SpanRecord::est_wall_ns)
        .sum();
    #[allow(clippy::cast_precision_loss)]
    Some((kids as f64 / root.est_wall_ns() as f64).min(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::{parse_document, parse_line};
    use ppf_sim::observe::envelope;
    use ppf_sim::prof::span_jsonl;
    use ppf_sim::SpanStat;

    fn line(span: Span, calls: u64, wall: u64, stride: u64) -> String {
        span_jsonl(span, SpanStat { calls, wall_ns: wall, cycles: calls }, stride, None)
    }

    #[test]
    fn parses_and_scales_by_stride() {
        let rec = parse_line(&line(Span::Tick, 10, 5_000, 64)).unwrap();
        let r = SpanRecord::from_record(&rec).expect("a span record");
        assert_eq!(r.span, Span::Tick);
        assert_eq!(r.est_calls(), 640);
        assert_eq!(r.est_wall_ns(), 320_000);
        assert_eq!(r.shard, None);
    }

    #[test]
    fn rejects_bad_records() {
        let span = |rest: &str| format!("{},{rest}}}", envelope("span"));
        assert!(parse_line("not json").is_err());
        assert!(parse_line(&span("\"span\":0,\"calls\":1,\"wall_ns\":1,\"cycles\":1,\"stride\":1"))
            .is_ok());
        assert!(parse_line(&span("\"span\":250,\"calls\":1,\"wall_ns\":1,\"cycles\":1,\"stride\":1"))
            .is_err());
        assert!(parse_line(&span("\"span\":0,\"calls\":1,\"wall_ns\":1,\"cycles\":1,\"stride\":0"))
            .is_err());
        // Missing a required key.
        assert!(parse_line(&span("\"span\":0,\"calls\":1,\"wall_ns\":1,\"stride\":1")).is_err());
        // Child span without its parent tag.
        assert!(parse_line(&span("\"span\":1,\"calls\":1,\"wall_ns\":1,\"cycles\":1,\"stride\":1"))
            .is_err());
        // Parent tag contradicting the taxonomy.
        assert!(parse_line(&span(
            "\"span\":1,\"calls\":1,\"wall_ns\":1,\"cycles\":1,\"stride\":1,\"parent\":5"
        ))
        .is_err());
    }

    #[test]
    fn coverage_is_children_over_root() {
        let doc = [
            line(Span::RunLoop, 1, 1_000_000, 1),
            line(Span::Tick, 1_000, 15_000, 64), // est 960_000
        ]
        .join("\n");
        let recs = parse_document(&doc).unwrap();
        let c = coverage(&recs).unwrap();
        assert!((c - 0.96).abs() < 1e-9, "coverage {c}");
        // Overshoot from stride scaling clamps to 1.0.
        let doc = [line(Span::RunLoop, 1, 1_000_000, 1), line(Span::Tick, 1_000, 20_000, 64)].join("\n");
        assert_eq!(coverage(&parse_document(&doc).unwrap()), Some(1.0));
        // No root span -> no coverage figure.
        assert_eq!(coverage(&parse_document(&line(Span::Decode, 5, 100, 1)).unwrap()), None);
    }

    #[test]
    fn renders_rank_and_rollup() {
        let doc = [
            line(Span::RunLoop, 1, 1_000_000, 1),
            line(Span::Tick, 1_000, 14_000, 64),
            line(Span::RetireDispatch, 1_000, 8_000, 64),
        ]
        .join("\n");
        let recs = parse_document(&doc).unwrap();
        let flat = render_flat(&recs);
        // Ranked by estimated wall: run_loop (1.0 ms) first.
        // Line 0 title, 1 headers, 2 separator, 3 first (top-ranked) row.
        let lines: Vec<&str> = flat.lines().collect();
        assert!(lines[3].starts_with("run_loop"), "{flat}");
        assert!(flat.contains("100.0%"), "{flat}");
        let top = render_topdown(&recs);
        assert!(top.contains("  tick"), "{top}");
        assert!(top.contains("    retire_dispatch"), "{top}");
    }

    #[test]
    fn tick_subtree_normalizes_to_measured_root() {
        // Tick estimate overshoots the measured root by 2x; the renderer
        // scales the subtree back so tick reads 100.0%, not 200.0%.
        let doc = [
            line(Span::RunLoop, 1, 1_000_000, 1),
            line(Span::Tick, 1_000, 31_250, 64), // est 2_000_000
            line(Span::RetireDispatch, 1_000, 15_625, 64), // est 1_000_000 -> 500_000
        ]
        .join("\n");
        let recs = parse_document(&doc).unwrap();
        let flat = render_flat(&recs);
        assert!(!flat.contains("200.0%"), "{flat}");
        assert!(flat.contains("50.0%"), "{flat}");
        let top = render_topdown(&recs);
        assert!(top.contains("100.0%"), "{top}");
    }

    #[test]
    fn aggregates_across_shards() {
        let stat = |calls| SpanStat { calls, wall_ns: calls * 10, cycles: 0 };
        let a = span_jsonl(Span::Score, stat(10), 1, Some(0));
        let b = span_jsonl(Span::Score, stat(30), 1, Some(1));
        let recs = parse_document(&format!("{a}\n{b}")).unwrap();
        assert_eq!(SpanRecord::from_record(&recs[0]).unwrap().shard, Some(0));
        let flat = render_flat(&recs);
        assert!(flat.contains("score"), "{flat}");
        assert!(flat.contains("40"), "aggregated calls: {flat}");
    }
}
