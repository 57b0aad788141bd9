//! Fleet-health report over the `serve` records the `ppf-serve` daemon
//! exports and the `drill` records `ppf_loadgen --drill` prints, parsed and
//! validated by [`crate::observe`]. Both kinds carry exact `p50_us` and
//! `p99_us` columns, so nothing is reconstructed here.

use crate::observe::{Kind, Record};
use crate::render::TextTable;

/// Per-mille helper for rate columns (integer-friendly, avoids "0.00%"
/// rounding for rare events).
fn per_mille(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den * 1000.0
    }
}

/// Renders a fleet-health report, one table row per `serve` or `drill`
/// record (records of other kinds are skipped).
///
/// # Errors
///
/// Fails when `records` holds no `serve` or `drill` record.
pub fn render_report(records: &[Record]) -> Result<String, String> {
    let mut table = TextTable::new(vec![
        "requests", "p50 us", "p99 us", "degraded/1k", "shed/1k", "restarts", "shard repl",
        "ckpt drops",
    ]);
    let mut rows = 0;
    for rec in records {
        let (degraded, shed) = match rec.kind() {
            Kind::Serve => {
                (rec.req("degraded_replies"), rec.req("shed_overflow") + rec.req("shed_quota"))
            }
            Kind::Drill => (rec.req("degraded"), rec.req("shed")),
            _ => continue,
        };
        let requests = rec.req("requests");
        table.row(vec![
            format!("{requests:.0}"),
            format!("{:.0}", rec.req("p50_us")),
            format!("{:.0}", rec.req("p99_us")),
            format!("{:.2}", per_mille(degraded, requests)),
            format!("{:.2}", per_mille(shed, requests)),
            format!("{:.0}", rec.req("tenant_restarts")),
            format!("{:.0}", rec.req("shard_replacements")),
            format!("{:.0}", rec.req("checkpoint_drops")),
        ]);
        rows += 1;
    }
    if rows == 0 {
        return Err("no serve or drill records".into());
    }
    Ok(table.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::{parse_document, parse_line};

    const SNAPSHOT: &str = "{\"v\":2,\"kind\":\"serve\",\"elapsed_ms\":60,\"requests\":200,\
        \"candidates\":800,\"accepted\":790,\"rejected\":10,\"shed_overflow\":2,\
        \"shed_quota\":1,\"degraded_replies\":3,\"deadline_misses\":0,\
        \"tenant_restarts\":1,\"shard_replacements\":0,\"checkpoint_records\":4,\
        \"checkpoint_bitflips\":0,\"checkpoint_drops\":0,\
        \"warm_started_tenants\":0,\"p50_us\":8,\"p99_us\":1024,\
        \"lat_b1\":89,\"lat_b2\":92,\"lat_b3\":9,\"lat_b9\":10}";

    const DRILL: &str = "{\"v\":2,\"kind\":\"drill\",\"requests\":7200,\"p50_us\":30,\
        \"p99_us\":6452,\"max_us\":102169,\"stalled_callers\":0,\"degraded\":18,\"shed\":0,\
        \"deadline_misses\":16,\"tenant_restarts\":1,\"shard_replacements\":1,\
        \"checkpoint_records\":450,\"checkpoint_bitflips\":75,\
        \"checkpoint_drops\":75,\"warm_restored\":5,\"warm_matched\":5,\
        \"warm_expected_mismatch\":1,\"warm_unexplained_mismatch\":0}";

    #[test]
    fn snapshot_parses_and_validates() {
        let rec = parse_line(SNAPSHOT).expect("valid snapshot");
        assert_eq!(rec.kind(), Kind::Serve);
        assert_eq!(rec.req("requests"), 200.0);
        assert_eq!(rec.get("lat_b9"), Some(10.0));
        let v1 = SNAPSHOT.replacen("\"v\":2", "\"v\":1", 1);
        assert!(parse_line(&v1).is_err(), "wrong version");
        let no_p99 = SNAPSHOT.replacen(",\"p99_us\":1024", "", 1);
        assert!(parse_line(&no_p99).unwrap_err().contains("p99_us"), "missing keys");
    }

    #[test]
    fn report_renders_rates() {
        let records = parse_document(SNAPSHOT).unwrap();
        let report = render_report(&records).expect("renders");
        assert!(report.contains("degraded/1k"));
        assert!(report.contains("200"), "request count shown");
        assert!(report.contains("15.00"), "3/200 degraded = 15 per mille");
        assert!(report.contains("1024"), "p99 comes from the record");
        assert!(render_report(&[]).is_err());
    }

    #[test]
    fn drill_report_line_parses_too() {
        // The drill line has its own required-key row, so it validates
        // strictly and renders next to daemon snapshots.
        let records = parse_document(&format!("{SNAPSHOT}\n{DRILL}")).expect("parses");
        assert_eq!(records[1].kind(), Kind::Drill);
        assert_eq!(records[1].get("stalled_callers"), Some(0.0));
        let report = render_report(&records).unwrap();
        assert!(report.contains("7200"), "{report}");
        assert!(report.contains("2.50"), "18/7200 degraded = 2.5 per mille: {report}");
    }
}
