//! Interval-telemetry export: writes a simulation's interval snapshots as
//! JSONL (full schema) and CSV (headline columns) files.
//!
//! Every [`crate::run_cell`] / [`crate::run_mix`] call funnels through
//! [`export_simulation`] after the run completes. With telemetry off (the
//! default) that is a single integer compare; with telemetry on, one
//! `<run-label>.jsonl` and one `<run-label>.csv` land under
//! [`observe::export_dir`], so a checkpointed sweep accumulates one pair of
//! files per cell alongside its checkpoint records.

use ppf_sim::observe::{self, sanitize};
use ppf_sim::{IntervalSnapshot, Simulation};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Writes `snapshots` as `<dir>/<label>.jsonl` and `<dir>/<label>.csv`,
/// creating the directory as needed. Returns the two paths.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_snapshots(
    dir: &Path,
    label: &str,
    snapshots: &[IntervalSnapshot],
) -> std::io::Result<(PathBuf, PathBuf)> {
    fs::create_dir_all(dir)?;
    let stem = sanitize(label);

    let jsonl_path = dir.join(format!("{stem}.jsonl"));
    let mut jsonl = fs::File::create(&jsonl_path)?;
    for s in snapshots {
        writeln!(jsonl, "{}", s.to_jsonl())?;
    }

    let csv_path = dir.join(format!("{stem}.csv"));
    let mut csv = fs::File::create(&csv_path)?;
    writeln!(csv, "{}", IntervalSnapshot::CSV_HEADER)?;
    for s in snapshots {
        writeln!(csv, "{}", s.to_csv_row())?;
    }

    Ok((jsonl_path, csv_path))
}

/// Exports a finished simulation's snapshots under `label` if its telemetry
/// was active; no-op (and no filesystem access) otherwise. Export failures
/// must not kill a sweep that already computed its results, so errors are
/// reported on stderr rather than propagated.
pub fn export_simulation(label: &str, sim: &Simulation) -> Option<(PathBuf, PathBuf)> {
    if sim.telemetry().interval == 0 {
        return None;
    }
    match write_snapshots(&observe::export_dir(), label, &sim.all_interval_snapshots()) {
        Ok(paths) => Some(paths),
        Err(e) => {
            eprintln!("warning: telemetry export for {label:?} failed: {e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppf_sim::{CacheStats, FilterCounters, PrefetchStats};

    fn snap(seq: u64) -> IntervalSnapshot {
        IntervalSnapshot {
            core: 0,
            seq,
            instructions: (seq + 1) * 100,
            cycles: (seq + 1) * 200,
            l2: CacheStats::default(),
            llc_demand_misses: 0,
            prefetch: PrefetchStats::default(),
            filter: FilterCounters::default(),
        }
    }

    #[test]
    fn writes_schema_valid_jsonl_and_csv() {
        let dir = std::env::temp_dir().join(format!("ppf-telemetry-test-{}", std::process::id()));
        let (jsonl, csv) =
            write_snapshots(&dir, "603.bwaves_s/PPF", &[snap(0), snap(1)]).expect("write");
        assert!(jsonl.file_name().unwrap().to_str().unwrap().contains("603.bwaves_s_PPF"));

        let text = fs::read_to_string(&jsonl).unwrap();
        let records = ppf_analysis::observe::parse_document(&text).expect("exported JSONL validates");
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].req("instr"), 200.0);

        let csv_text = fs::read_to_string(&csv).unwrap();
        let mut lines = csv_text.lines();
        assert_eq!(lines.next(), Some(IntervalSnapshot::CSV_HEADER));
        assert_eq!(lines.count(), 2);

        let _ = fs::remove_dir_all(&dir);
    }

    /// One fig09 cell (PPF on a SPEC CPU2017 model) with intervals and
    /// spans on: both exports validate through the one parser.
    #[cfg(feature = "observe")]
    #[test]
    fn fig09_cell_exports_validate() {
        use ppf_analysis::observe::{parse_document, Kind};
        use ppf_sim::{ProfConfig, SystemConfig, TelemetryConfig};
        let workload = &ppf_trace::Workload::spec2017()[0];
        let trace = Box::new(ppf_trace::TraceBuilder::new(workload.clone()).seed(42).build());
        let mut sim = Simulation::new(SystemConfig::single_core());
        sim.add_core(workload.name(), trace, crate::Scheme::Ppf.build());
        sim.set_telemetry(TelemetryConfig { interval: 10_000 });
        sim.set_profiling(ProfConfig::enabled());
        sim.run(20_000, 60_000);

        let dir = std::env::temp_dir().join(format!("ppf-fig09-cell-test-{}", std::process::id()));
        let (jsonl, _) = write_snapshots(&dir, workload.name(), &sim.all_interval_snapshots())
            .expect("write");
        let intervals = parse_document(&fs::read_to_string(&jsonl).unwrap()).expect("valid intervals");
        assert!(intervals.len() >= 6, "{} interval records", intervals.len());
        assert!(intervals.iter().all(|r| r.kind() == Kind::Interval));
        let spans = parse_document(&sim.profile_jsonl()).expect("valid spans");
        assert!(spans.iter().any(|r| r.kind() == Kind::Span && r.req("span") == 0.0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sanitize_keeps_names_flat() {
        assert_eq!(sanitize("mix 3/SPP"), "mix_3_SPP");
        assert_eq!(sanitize("a-b_c.d"), "a-b_c.d");
    }
}
