//! The performance ledger: a log of perfbench results, and the one tool
//! that writes and reads it.
//!
//! ```text
//! ledger [--log FILE] record --workload W [--seed N] [--seconds S] [--trace 0|1]
//! ledger [--log FILE] compare BASE HEAD
//! ```
//!
//! `record` runs `python3 perfbench/run.py` with its arguments, passes the
//! benchmark's stdout through, and appends one schema-v5 object (one per
//! line) to the JSON array in FILE (default `results/bench_throughput.json`):
//! the run's `workload`, `seed`, `seconds` and `trace`, the `git_rev` and
//! `cpu` of perfbench's `host` line, and perfbench's result line verbatim as
//! `result`.
//!
//! `compare` reads the log and, per workload and seed, compares the records
//! whose `git_rev` starts with BASE against those that start with HEAD. For every
//! metric it prints each side's q1 / median / q3, the median delta and the
//! base IQR as a share of the base median. The verdict is `better` or
//! `worse` only when the medians differ by more than the base IQR, in the
//! direction `BENCHMARK.json` gives for the metric; otherwise it is `within
//! spread`. Fewer than five records on either side print `insufficient (n)`
//! instead. Each row also counts the pairs the head won: the i-th base record
//! of a block is paired with its i-th head record, in log order, and a tie
//! counts for neither side. A metric with a `bound` in `BENCHMARK.json` is
//! flagged `beyond bound` when the head median is worse than the base median
//! by more than that share of it. Traced records (`--trace 1`) carry
//! perfbench's per-layer metrics and form their own block, printed after the
//! workload's end-to-end block.
//! Records of older schemas (v1–v4) stay in the file as history and are
//! skipped and counted, as are lines that do not decode and runs perfbench
//! did not report correct.
//!
//! Both subcommands run from the repository root (`scripts/ledger` does
//! that): `record` starts perfbench by its relative path, and `compare`
//! reads `BENCHMARK.json`. Exit status 2 means a usage or input error.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use ppf_sim::json::{self, Json};

const DEFAULT_LOG: &str = "results/bench_throughput.json";

/// Layout version of the records this tool writes and compares.
const SCHEMA_VERSION: f64 = 5.0;

/// Fewest records per rev that a verdict is drawn from.
const MIN_RUNS: usize = 5;

const USAGE: &str = "\
usage: ledger [--log FILE] record --workload W [--seed N] [--seconds S] [--trace 0|1]
       ledger [--log FILE] compare BASE HEAD";

fn main() -> ExitCode {
    let mut log = DEFAULT_LOG.to_string();
    let mut args = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--log" => match it.next() {
                Some(path) => log = path,
                None => return usage("--log needs a path"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ => args.push(a),
        }
    }
    let log = Path::new(&log);
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "record" => match RunArgs::parse(rest) {
            Ok(run) => record(log, &run, rest),
            Err(e) => return usage(&e),
        },
        Some((cmd, rest)) if cmd == "compare" => match rest {
            [base, head] if !base.is_empty() && !head.is_empty() => compare_main(log, base, head),
            _ => return usage("compare takes BASE and HEAD revisions"),
        },
        _ => return usage("expected `record` or `compare`"),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("ledger: {msg}\n{USAGE}");
    ExitCode::from(2)
}

/// The perfbench flags of one run, with perfbench's defaults, so the record
/// names what ran.
#[derive(Debug, Clone, PartialEq)]
struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl RunArgs {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut run = RunArgs { workload: String::new(), seed: 42, seconds: 10.0, trace: false };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => run.workload = value.clone(),
                "--seed" => run.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => run.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    run.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown perfbench flag {flag}")),
            }
        }
        if run.workload.is_empty() {
            return Err("record needs --workload".into());
        }
        Ok(run)
    }
}

/// Runs perfbench, echoing its stdout, and appends the run's v5 record.
fn record(log: &Path, run: &RunArgs, args: &[String]) -> Result<(), String> {
    let mut child = Command::new("python3")
        .arg("perfbench/run.py")
        .args(args)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start perfbench: {e}"))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let (mut host, mut last) = (String::new(), String::new());
    let mut read_error = None;
    for line in BufReader::new(stdout).lines() {
        match line {
            Ok(line) => {
                println!("{line}");
                if line.starts_with("host ") {
                    host.clone_from(&line);
                }
                last = line;
            }
            Err(e) => {
                read_error = Some(e);
                break;
            }
        }
    }
    let status = child.wait().map_err(|e| format!("waiting for perfbench: {e}"))?;
    if let Some(e) = read_error {
        return Err(format!("reading perfbench output: {e}"));
    }
    if !status.success() {
        return Err(format!("perfbench failed ({status}); nothing recorded"));
    }
    let line = v5_line(run, &host, &last)?;
    append_record(log, &line).map_err(|e| format!("cannot write {}: {e}", log.display()))?;
    eprintln!("ledger: appended a v5 {} record to {}", run.workload, log.display());
    Ok(())
}

/// The v5 record of one run, from perfbench's `host` line and its result
/// (last) line.
fn v5_line(run: &RunArgs, host: &str, result: &str) -> Result<String, String> {
    let host = host
        .strip_prefix("host ")
        .and_then(|h| json::parse(h).ok())
        .ok_or("perfbench printed no host line")?;
    let field = |key: &str| {
        host.get(key).and_then(Json::as_str).map(json_str).ok_or(format!("host line has no {key}"))
    };
    let result = result.trim();
    json::parse(result)
        .ok()
        .filter(|r| matches!(r.get("metrics"), Some(Json::Obj(_))))
        .ok_or("perfbench's last line is not a result")?;
    Ok(format!(
        "{{\"schema_version\":{SCHEMA_VERSION},\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"git_rev\":{},\"cpu\":{},\"result\":{result}}}",
        json_str(&run.workload),
        run.seed,
        run.seconds,
        u8::from(run.trace),
        field("git_rev")?,
        field("cpu")?,
    ))
}

/// Appends `entry` to the JSON array at `path`, creating the file (and its
/// parent directory) if needed. The array is maintained textually — the
/// existing content is kept verbatim and the new object is spliced before
/// the closing bracket — so older records survive byte for byte.
fn append_record(path: &Path, entry: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let body = match std::fs::read_to_string(path) {
        Ok(existing) => {
            let trimmed = existing.trim_end();
            match trimmed.strip_suffix(']') {
                Some(head) => {
                    let head = head.trim_end();
                    if head.ends_with('[') {
                        format!("{head}\n  {entry}\n]\n")
                    } else {
                        format!("{head},\n  {entry}\n]\n")
                    }
                }
                // Unrecognized content: preserve it and start a fresh array.
                None => format!("{trimmed}\n[\n  {entry}\n]\n"),
            }
        }
        Err(_) => format!("[\n  {entry}\n]\n"),
    };
    let mut f = std::fs::File::create(path)?;
    f.write_all(body.as_bytes())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One v5 record, as far as `compare` needs it.
#[derive(Debug, Clone, PartialEq)]
struct Record {
    workload: String,
    seed: u64,
    trace: bool,
    git_rev: String,
    /// perfbench reported `correct:true` and `failed:0`.
    ok: bool,
    metrics: Vec<(String, f64)>,
}

/// What one line of the log holds.
#[derive(Debug, PartialEq)]
enum Line {
    V5(Record),
    /// A v1–v4 record, kept as history.
    Legacy,
    Malformed,
}

fn classify(line: &str) -> Line {
    let Ok(obj) = json::parse(line) else { return Line::Malformed };
    let version = obj.get("schema_version");
    if version.is_some_and(|v| v.as_f64() == Some(SCHEMA_VERSION)) {
        return decode_v5(&obj).map_or(Line::Malformed, Line::V5);
    }
    // v1 records carry no schema_version; v2–v4 carry 2, 3 or 4.
    let old =
        version.map_or(Some(1.0), Json::as_f64).is_some_and(|v| [1.0, 2.0, 3.0, 4.0].contains(&v));
    if old && obj.get("experiment").is_some() {
        Line::Legacy
    } else {
        Line::Malformed
    }
}

fn decode_v5(obj: &Json) -> Option<Record> {
    let result = obj.get("result")?;
    let Json::Obj(metrics) = result.get("metrics")? else { return None };
    let metrics = metrics
        .iter()
        .map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect::<Option<Vec<_>>>()?;
    let trace = match obj.get("trace")?.as_f64()? {
        0.0 => false,
        1.0 => true,
        _ => return None,
    };
    let seed = obj.get("seed")?.as_f64()?;
    if seed < 0.0 || seed.fract() != 0.0 {
        return None;
    }
    Some(Record {
        workload: obj.get("workload")?.as_str()?.to_string(),
        seed: seed as u64,
        trace,
        git_rev: obj.get("git_rev")?.as_str()?.to_string(),
        ok: *result.get("correct")? == Json::Bool(true) && result.get("failed")?.as_f64()? == 0.0,
        metrics,
    })
}

/// Lines of the log that `compare` does not use, by reason.
#[derive(Debug, Default, PartialEq)]
struct Skipped {
    legacy: usize,
    malformed: usize,
    not_correct: usize,
}

/// Decodes a log. Blank lines and the array brackets are layout; every
/// other line is either a usable record or counted in [`Skipped`].
fn read_log(bytes: &[u8]) -> (Vec<Record>, Skipped) {
    let mut records = Vec::new();
    let mut skipped = Skipped::default();
    for raw in bytes.split(|&b| b == b'\n') {
        let Ok(line) = std::str::from_utf8(raw) else {
            skipped.malformed += 1;
            continue;
        };
        let line = line.trim();
        let line = line.strip_suffix(',').unwrap_or(line);
        if matches!(line, "" | "[" | "]") {
            continue;
        }
        match classify(line) {
            Line::V5(r) if r.ok => records.push(r),
            Line::V5(_) => skipped.not_correct += 1,
            Line::Legacy => skipped.legacy += 1,
            Line::Malformed => skipped.malformed += 1,
        }
    }
    (records, skipped)
}

/// What `BENCHMARK.json` says of one metric: its direction, and for an
/// end-to-end metric the share of the base median by which the head may be
/// worse.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Rule {
    higher_is_better: bool,
    bound: Option<f64>,
}

/// Metric name to its [`Rule`], from `BENCHMARK.json`'s `end_to_end` and
/// `per_layer` lists.
fn rules(bench: &Json) -> BTreeMap<String, Rule> {
    ["end_to_end", "per_layer"]
        .into_iter()
        .filter_map(|list| match bench.get(list) {
            Some(Json::Arr(items)) => Some(items),
            _ => None,
        })
        .flatten()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?;
            let rule = Rule {
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound").and_then(Json::as_f64),
            };
            Some((name.to_string(), rule))
        })
        .collect()
}

/// q1, median and q3, interpolating linearly (perfbench's quantile rule).
/// `xs` must not be empty.
fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |p: f64| {
        let pos = p * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    [q(0.25), q(0.5), q(0.75)]
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Verdict {
    Better,
    Worse,
    WithinSpread,
    /// Beyond the spread, for a metric `BENCHMARK.json` gives no direction.
    Changed,
    /// Fewer than [`MIN_RUNS`] values on one side; the smaller count.
    Insufficient(usize),
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Better => f.write_str("better"),
            Verdict::Worse => f.write_str("worse"),
            Verdict::WithinSpread => f.write_str("within spread"),
            Verdict::Changed => f.write_str("changed"),
            Verdict::Insufficient(n) => write!(f, "insufficient ({n})"),
        }
    }
}

fn verdict(base: &[f64], head: &[f64], higher_is_better: Option<bool>) -> Verdict {
    let n = base.len().min(head.len());
    if n < MIN_RUNS {
        return Verdict::Insufficient(n);
    }
    let [q1, base_median, q3] = quartiles(base);
    let head_median = quartiles(head)[1];
    if (head_median - base_median).abs() <= q3 - q1 {
        return Verdict::WithinSpread;
    }
    match higher_is_better {
        Some(higher) if (head_median > base_median) == higher => Verdict::Better,
        Some(_) => Verdict::Worse,
        None => Verdict::Changed,
    }
}

/// The pairs the head won and the pairs counted, over `(base, head)` pairs.
fn pairs_won(pairs: &[(f64, f64)], higher_is_better: bool) -> (usize, usize) {
    let won = pairs.iter().filter(|&&(b, h)| if higher_is_better { h > b } else { h < b }).count();
    (won, pairs.len())
}

/// Whether the head median is worse than the base median by more than the
/// rule's bound, a share of the base median.
fn beyond_bound(base_median: f64, head_median: f64, rule: Rule) -> bool {
    let Some(bound) = rule.bound else { return false };
    let worse_by =
        if rule.higher_is_better { base_median - head_median } else { head_median - base_median };
    worse_by > bound * base_median.abs()
}

/// One metric of a [`Block`]: each side's quartiles (absent when that side
/// has no value for it), the verdict, the pairs the head won (for a metric
/// with a direction) and whether the head median is beyond the bound.
#[derive(Debug)]
struct Row {
    metric: String,
    base: Option<[f64; 3]>,
    head: Option<[f64; 3]>,
    verdict: Verdict,
    won: Option<(usize, usize)>,
    beyond_bound: bool,
}

/// The comparison of one workload's untraced or traced records at one seed.
#[derive(Debug)]
struct Block {
    workload: String,
    seed: u64,
    trace: bool,
    base_runs: usize,
    head_runs: usize,
    rows: Vec<Row>,
}

fn compare(
    records: &[Record],
    base: &str,
    head: &str,
    rules: &BTreeMap<String, Rule>,
) -> Vec<Block> {
    type Sides<'a> = (Vec<&'a Record>, Vec<&'a Record>);
    let mut groups: BTreeMap<(&str, u64, bool), Sides<'_>> = BTreeMap::new();
    for r in records {
        let (b, h) = (r.git_rev.starts_with(base), r.git_rev.starts_with(head));
        if b || h {
            let sides = groups.entry((&r.workload, r.seed, r.trace)).or_default();
            if b {
                sides.0.push(r);
            }
            if h {
                sides.1.push(r);
            }
        }
    }
    groups
        .into_iter()
        .map(|((workload, seed, trace), (b, h))| {
            let mut names: Vec<&str> = Vec::new();
            for (name, _) in b.iter().chain(&h).flat_map(|r| &r.metrics) {
                if !names.contains(&name.as_str()) {
                    names.push(name);
                }
            }
            let value = |r: &Record, name: &str| {
                r.metrics.iter().find(|(n, _)| n == name).map(|m| m.1)
            };
            let values = |side: &[&Record], name: &str| -> Vec<f64> {
                side.iter().filter_map(|r| value(r, name)).collect()
            };
            let rows = names
                .into_iter()
                .map(|name| {
                    let (bv, hv) = (values(&b, name), values(&h, name));
                    let (base, head) = (
                        (!bv.is_empty()).then(|| quartiles(&bv)),
                        (!hv.is_empty()).then(|| quartiles(&hv)),
                    );
                    let rule = rules.get(name).copied();
                    let pairs: Vec<(f64, f64)> = b
                        .iter()
                        .zip(&h)
                        .filter_map(|(rb, rh)| Some((value(rb, name)?, value(rh, name)?)))
                        .collect();
                    Row {
                        metric: name.to_string(),
                        base,
                        head,
                        verdict: verdict(&bv, &hv, rule.map(|r| r.higher_is_better)),
                        won: rule.map(|r| pairs_won(&pairs, r.higher_is_better)),
                        beyond_bound: match (base, head, rule) {
                            (Some(bq), Some(hq), Some(rule)) => beyond_bound(bq[1], hq[1], rule),
                            _ => false,
                        },
                    }
                })
                .collect();
            Block {
                workload: workload.to_string(),
                seed,
                trace,
                base_runs: b.len(),
                head_runs: h.len(),
                rows,
            }
        })
        .collect()
}

/// A value to four significant digits.
fn sig(x: f64) -> String {
    if x == 0.0 {
        return "0".into();
    }
    let decimals = (3 - x.abs().log10().floor() as i32).clamp(0, 6) as usize;
    format!("{x:.decimals$}")
}

fn render(blocks: &[Block], base: &str, head: &str) -> String {
    let mut out = String::new();
    for b in blocks {
        let kind = if b.trace { "per layer (traced)" } else { "end to end" };
        out += &format!(
            "\n{} — {kind}: base {base} ({} runs), head {head} ({} runs), seed {}\n",
            b.workload, b.base_runs, b.head_runs, b.seed
        );
        out += &format!(
            "  {:<28} {:>32}  {:>32}  {:>8}  {:>8}  {:>9}  verdict\n",
            "metric",
            "base q1 / median / q3",
            "head q1 / median / q3",
            "Δ median",
            "base IQR",
            "pairs won"
        );
        for r in &b.rows {
            let side = |q: Option<[f64; 3]>| {
                q.map_or("-".into(), |[a, m, c]| format!("{} / {} / {}", sig(a), sig(m), sig(c)))
            };
            let (delta, iqr) = match (r.base, r.head) {
                (Some([q1, m, q3]), Some(h)) if m != 0.0 => (
                    format!("{:+.1}%", (h[1] - m) / m.abs() * 100.0),
                    format!("{:.1}%", (q3 - q1) / m.abs() * 100.0),
                ),
                _ => ("-".into(), "-".into()),
            };
            let won = r.won.map_or("-".into(), |(won, n)| format!("{won}/{n}"));
            let flag = if r.beyond_bound { ", beyond bound" } else { "" };
            out += &format!(
                "  {:<28} {:>32}  {:>32}  {delta:>8}  {iqr:>8}  {won:>9}  {}{flag}\n",
                r.metric,
                side(r.base),
                side(r.head),
                r.verdict
            );
        }
    }
    out
}

fn compare_main(log: &Path, base: &str, head: &str) -> Result<(), String> {
    let bytes = std::fs::read(log).map_err(|e| format!("cannot read {}: {e}", log.display()))?;
    let bench = std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|t| json::parse(&t).ok())
        .ok_or("cannot read BENCHMARK.json (run from the repository root)")?;
    let (records, skipped) = read_log(&bytes);
    println!(
        "ledger: {}: {} v5 records; skipped {} v1–v4 records (history), {} malformed lines, \
         {} runs not reported correct",
        log.display(),
        records.len(),
        skipped.legacy,
        skipped.malformed,
        skipped.not_correct
    );
    for rev in [base, head] {
        let mut revs: Vec<&str> =
            records.iter().map(|r| r.git_rev.as_str()).filter(|r| r.starts_with(rev)).collect();
        revs.sort_unstable();
        revs.dedup();
        match revs.len() {
            0 => return Err(format!("no v5 record has a git_rev starting with {rev}")),
            1 => {}
            n => return Err(format!("{rev} matches {n} revisions; give a longer prefix")),
        }
    }
    print!("{}", render(&compare(&records, base, head, &rules(&bench)), base, head));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppf_trace::mutate;

    const HOST: &str =
        "host {\"git_rev\":\"aaaa111\",\"cpu\":\"TestCPU \\\"9000\\\"\",\"nproc\":2,\"simd\":\"Portable\"}";

    fn tmpfile(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ppf-ledger-{}-{name}.json", std::process::id()))
    }

    fn run(workload: &str, trace: bool) -> RunArgs {
        RunArgs { workload: workload.into(), seed: 42, seconds: 50.0, trace }
    }

    /// A v5 line as `record` writes it, for `rev`, with one metric per pair.
    fn line(rev: &str, workload: &str, trace: bool, metrics: &[(&str, f64)]) -> String {
        seeded_line(rev, workload, 42, trace, metrics)
    }

    /// [`line`] for a run at `seed`.
    fn seeded_line(
        rev: &str,
        workload: &str,
        seed: u64,
        trace: bool,
        metrics: &[(&str, f64)],
    ) -> String {
        let body: Vec<String> = metrics
            .iter()
            .map(|(n, v)| format!("\"{n}\":{{\"value\":{v},\"unit\":\"x\"}}"))
            .collect();
        let result = format!(
            "{{\"correct\":true,\"attempted\":9,\"failed\":0,\"metrics\":{{{}}}}}",
            body.join(",")
        );
        let host = HOST.replace("aaaa111", rev);
        v5_line(&RunArgs { seed, ..run(workload, trace) }, &host, &result).unwrap()
    }

    fn log_of(lines: &[String]) -> String {
        format!("[\n  {}\n]\n", lines.join(",\n  "))
    }

    fn dirs() -> BTreeMap<String, Rule> {
        [
            ("ops_per_cpu_s", true, Some(0.25)),
            ("op_p50_us", false, Some(0.25)),
            ("sim.ns_per_tick", false, None),
        ]
        .into_iter()
        .map(|(n, higher_is_better, bound)| (n.to_string(), Rule { higher_is_better, bound }))
        .collect()
    }

    /// The row for `metric` of the first block.
    fn row_of(lines: &[String], metric: &str) -> Row {
        let (records, _) = read_log(log_of(lines).as_bytes());
        let mut blocks = compare(&records, "base", "head", &dirs());
        let at = blocks[0].rows.iter().position(|r| r.metric == metric).unwrap();
        blocks.swap_remove(0).rows.swap_remove(at)
    }

    /// The verdict for `metric` of `workload`'s untraced block.
    fn verdict_of(lines: &[String], metric: &str) -> Verdict {
        row_of(lines, metric).verdict
    }

    fn runs(rev: &str, metric: &str, values: &[f64]) -> Vec<String> {
        values.iter().map(|&v| line(rev, "fig09-1c", false, &[(metric, v)])).collect()
    }

    #[test]
    fn record_line_round_trips() {
        let l =
            line("c0ffee", "serve-sock", true, &[("serve.hop_us", 1.5), ("ops_per_cpu_s", 2e5)]);
        assert!(
            l.starts_with("{\"schema_version\":5,\"workload\":\"serve-sock\",\"seed\":42,"),
            "{l}"
        );
        assert!(l.contains("\"seconds\":50,\"trace\":1,\"git_rev\":\"c0ffee\""), "{l}");
        assert!(l.contains("\"cpu\":\"TestCPU \\\"9000\\\"\""), "{l}");
        let Line::V5(r) = classify(&l) else { panic!("did not decode: {l}") };
        assert_eq!((r.workload.as_str(), r.seed), ("serve-sock", 42));
        assert!(r.trace && r.ok);
        assert_eq!(r.git_rev, "c0ffee");
        assert_eq!(
            r.metrics,
            vec![("serve.hop_us".to_string(), 1.5), ("ops_per_cpu_s".to_string(), 2e5)]
        );
    }

    #[test]
    fn record_refuses_missing_host_or_result() {
        let ok = "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{}}";
        assert!(v5_line(&run("w", false), "", ok).is_err());
        assert!(v5_line(&run("w", false), HOST, "workload fig09-1c").is_err());
        assert!(v5_line(&run("w", false), HOST, ok).is_ok());
    }

    #[test]
    fn run_args_follow_perfbench_defaults() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert_eq!(
            RunArgs::parse(&args("--workload fig09-1c")).unwrap(),
            RunArgs { workload: "fig09-1c".into(), seed: 42, seconds: 10.0, trace: false }
        );
        let r =
            RunArgs::parse(&args("--seconds 2 --trace 1 --workload serve-sock --seed 7")).unwrap();
        assert_eq!((r.seed, r.seconds, r.trace), (7, 2.0, true));
        for bad in [
            "",
            "--seed 1",
            "--workload w --trace 2",
            "--workload w --seed",
            "--workload w --log x",
        ] {
            assert!(RunArgs::parse(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn append_creates_then_extends_valid_array() {
        let path = tmpfile("append");
        let _ = std::fs::remove_file(&path);
        append_record(&path, &line("first", "w", false, &[])).unwrap();
        append_record(&path, &line("second", "w", false, &[])).unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        assert!(s.trim_start().starts_with('['), "not an array: {s}");
        assert!(s.trim_end().ends_with(']'), "unterminated: {s}");
        assert!(json::parse(&s).is_ok(), "not valid JSON: {s}");
        assert_eq!(read_log(s.as_bytes()).0.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn append_tolerates_pre_v2_records() {
        let path = tmpfile("legacy");
        std::fs::write(
            &path,
            "[\n  {\"experiment\":\"old\",\"threads\":1,\"wall_seconds\":1.0,\"simulated_instructions\":10,\"instr_per_second\":10,\"unix_time\":0}\n]\n",
        )
        .unwrap();
        append_record(&path, &line("new", "w", false, &[])).unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        assert!(s.contains("{\"experiment\":\"old\",\"threads\":1,"), "{s}");
        let (records, skipped) = read_log(s.as_bytes());
        assert_eq!((records.len(), skipped.legacy), (1, 1), "{s}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn damaged_records_are_skipped_and_counted_never_a_panic() {
        let sample =
            line("c0ffee", "fig09-1c", true, &[("ops_per_cpu_s", 2.28e7), ("sim.ticks", 3.4e7)]);
        let other = line("beef", "serve-sock", false, &[("op_p50_us", 30.2)]);
        assert!(matches!(classify(&sample), Line::V5(_)));
        assert!(matches!(classify(&other), Line::V5(_)));
        // Every cut: no prefix is a whole object (the empty one is a blank
        // line, which is layout).
        for cut in mutate::prefixes(sample.as_bytes()).skip(1) {
            let (records, skipped) = read_log(cut);
            assert!(records.is_empty(), "prefix {} decoded", cut.len());
            assert_eq!(skipped.malformed, 1, "prefix {} not counted", cut.len());
        }
        // Every byte replaced by a control character: invalid anywhere.
        for at in 0..sample.len() {
            let mut bad = sample.clone().into_bytes();
            bad[at] = 0x01;
            let (records, skipped) = read_log(&bad);
            assert!(records.is_empty(), "corruption at {at} decoded");
            assert_eq!(skipped.malformed, 1, "corruption at {at} not counted");
        }
        // Numbers outside the JSON grammar, and a key given twice.
        for bad in [
            sample.replacen("\"value\":22800000", "\"value\":+22800000", 1),
            sample.replacen("\"value\":22800000", "\"value\":022800000", 1),
            sample.replacen("\"value\":22800000", "\"value\":.5", 1),
            sample.replacen("\"value\":22800000", "\"value\":1.", 1),
            sample.replacen("\"trace\":1", "\"trace\":1,\"trace\":0", 1),
        ] {
            assert_ne!(bad, sample);
            let (records, skipped) = read_log(bad.as_bytes());
            assert!(records.is_empty(), "decoded {bad}");
            assert_eq!(skipped.malformed, 1, "not counted: {bad}");
        }
        // Every single-bit flip and every splice of two records: a mutant
        // may still spell a valid record (a digit for a digit), but each
        // line lands in exactly one bucket.
        let flips = mutate::bit_flips(sample.as_bytes());
        for (n, bad) in
            flips.chain(mutate::splices(sample.as_bytes(), other.as_bytes())).enumerate()
        {
            let (records, skipped) = read_log(&bad);
            let total = records.len() + skipped.legacy + skipped.malformed + skipped.not_correct;
            assert_eq!(total, 1, "mutant {n} counted {total} times");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
        assert_eq!(json::parse(&deep).map_err(|e| e.reason), Err(json::Reason::Depth));
        assert_eq!(classify(&deep), Line::Malformed);
    }

    #[test]
    fn mixed_file_compares_only_v5_records() {
        let mut lines: Vec<String> = [
            "{\"experiment\":\"fig09_single_core\",\"threads\":1,\"wall_seconds\":1.861,\"simulated_instructions\":25000000,\"instr_per_second\":13433995,\"unix_time\":1785951071}",
            "{\"schema_version\":2,\"experiment\":\"fig09_single_core\",\"git_rev\":\"base\",\"threads\":1,\"wall_seconds\":6.68,\"simulated_instructions\":120000000,\"instr_per_second\":17963169,\"unix_time\":1785952747}",
            "{\"schema_version\":3,\"experiment\":\"fig09_single_core\",\"git_rev\":\"head\",\"cpu\":\"X\",\"threads\":1,\"wall_seconds\":9.245,\"simulated_instructions\":120000000,\"instr_per_second\":12979935,\"unix_time\":1786148759}",
            "{\"schema_version\":4,\"experiment\":\"fig09_single_core\",\"git_rev\":\"head\",\"cpu\":\"X\",\"threads\":1,\"wall_seconds\":7.118,\"simulated_instructions\":120000000,\"instr_per_second\":16859788,\"skip_ratio\":0.7113,\"unix_time\":1786151434}",
        ]
        .map(String::from)
        .to_vec();
        lines.extend(runs("base", "ops_per_cpu_s", &[20.0; 5]));
        lines.extend(runs("head", "ops_per_cpu_s", &[20.0; 5]));
        lines.push(
            line("head", "fig09-1c", false, &[("ops_per_cpu_s", 99.0)])
                .replace("\"correct\":true", "\"correct\":false"),
        );
        let (records, skipped) = read_log(log_of(&lines).as_bytes());
        assert_eq!(records.len(), 10);
        assert_eq!(skipped, Skipped { legacy: 4, malformed: 0, not_correct: 1 });
        let blocks = compare(&records, "base", "head", &dirs());
        assert_eq!(blocks.len(), 1);
        assert_eq!((blocks[0].base_runs, blocks[0].head_runs), (5, 5));
        assert_eq!(blocks[0].rows[0].verdict, Verdict::WithinSpread);
    }

    #[test]
    fn a_slow_last_run_does_not_make_a_winning_change_worse() {
        // The change wins four of five pairs; its last run is the slowest
        // of all (a last-two-records comparison reads it as a regression).
        let mut lines = runs("base", "ops_per_cpu_s", &[20.0, 20.4, 19.8, 20.2, 20.1]);
        lines.extend(runs("head", "ops_per_cpu_s", &[20.6, 20.9, 20.5, 21.0, 16.0]));
        assert_eq!(verdict_of(&lines, "ops_per_cpu_s"), Verdict::Better);
        assert_eq!(row_of(&lines, "ops_per_cpu_s").won, Some((4, 5)));
        let text = {
            let (records, _) = read_log(log_of(&lines).as_bytes());
            render(&compare(&records, "base", "head", &dirs()), "base", "head")
        };
        assert!(text.contains("      4/5  better\n"), "{text}");
        // Interleaved parent/change order does not matter either.
        let mut mixed = runs("base", "ops_per_cpu_s", &[20.0, 20.4]);
        mixed.extend(runs("head", "ops_per_cpu_s", &[20.6, 20.9]));
        mixed.extend(runs("base", "ops_per_cpu_s", &[19.8, 20.2, 20.1]));
        mixed.extend(runs("head", "ops_per_cpu_s", &[20.5, 21.0, 16.0]));
        assert_ne!(verdict_of(&mixed, "ops_per_cpu_s"), Verdict::Worse);
        assert_eq!(row_of(&mixed, "ops_per_cpu_s").won, Some((4, 5)));
    }

    #[test]
    fn pairs_follow_log_order_and_ties_count_for_neither() {
        // Lower is better: the head wins pairs 1 and 4, ties pair 2 and
        // loses pair 3; its sixth run has no base partner.
        let mut lines = runs("base", "op_p50_us", &[30.0, 30.0, 30.0, 31.0, 29.0]);
        lines.extend(runs("head", "op_p50_us", &[29.0, 30.0, 32.0, 30.5, 29.0, 1.0]));
        assert_eq!(row_of(&lines, "op_p50_us").won, Some((2, 5)));
        // A metric with no direction counts no pairs.
        let mut l = runs("base", "unlisted", &[1.0; 5]);
        l.extend(runs("head", "unlisted", &[2.0; 5]));
        assert_eq!(row_of(&l, "unlisted").won, None);
    }

    #[test]
    fn a_head_median_past_the_bound_is_flagged() {
        let base = [100.0, 102.0, 98.0, 101.0, 99.0];
        let flagged = |metric: &str, head: &[f64]| {
            let mut l = runs("base", metric, &base);
            l.extend(runs("head", metric, head));
            row_of(&l, metric).beyond_bound
        };
        // Bound 25%: a higher-is-better median of 74 is past it, 76 is not,
        // and a gain of any size never is.
        assert!(flagged("ops_per_cpu_s", &[74.0; 5]));
        assert!(!flagged("ops_per_cpu_s", &[76.0; 5]));
        assert!(!flagged("ops_per_cpu_s", &[1000.0; 5]));
        // Lower is better: 126 is past it, 124 is not.
        assert!(flagged("op_p50_us", &[126.0; 5]));
        assert!(!flagged("op_p50_us", &[124.0; 5]));
        assert!(!flagged("op_p50_us", &[1.0; 5]));
        // A per-layer metric has no bound.
        assert!(!flagged("sim.ns_per_tick", &[1000.0; 5]));
        let mut l = runs("base", "op_p50_us", &base);
        l.extend(runs("head", "op_p50_us", &[126.0; 5]));
        let (records, _) = read_log(log_of(&l).as_bytes());
        let text = render(&compare(&records, "base", "head", &dirs()), "base", "head");
        assert!(text.contains("      0/5  worse, beyond bound\n"), "{text}");
    }

    #[test]
    fn verdicts() {
        let higher = |b: &[f64], h: &[f64]| {
            let mut l = runs("base", "ops_per_cpu_s", b);
            l.extend(runs("head", "ops_per_cpu_s", h));
            verdict_of(&l, "ops_per_cpu_s")
        };
        let lower = |b: &[f64], h: &[f64]| {
            let mut l = runs("base", "op_p50_us", b);
            l.extend(runs("head", "op_p50_us", h));
            verdict_of(&l, "op_p50_us")
        };
        let base = [10.0, 10.2, 9.8, 10.1, 9.9]; // median 10, IQR 0.2
        assert_eq!(higher(&base, &[11.0; 4]), Verdict::Insufficient(4));
        assert_eq!(higher(&base[..3], &[11.0; 5]), Verdict::Insufficient(3));
        assert_eq!(higher(&base, &[10.15; 5]), Verdict::WithinSpread);
        assert_eq!(lower(&base, &[9.85; 5]), Verdict::WithinSpread);
        assert_eq!(higher(&base, &[11.0; 5]), Verdict::Better);
        assert_eq!(higher(&base, &[9.0; 5]), Verdict::Worse);
        assert_eq!(lower(&base, &[9.0; 5]), Verdict::Better);
        assert_eq!(lower(&base, &[11.0; 5]), Verdict::Worse);
        // A metric BENCHMARK.json does not list has no direction.
        let mut l = runs("base", "unlisted", &base);
        l.extend(runs("head", "unlisted", &[11.0; 5]));
        assert_eq!(verdict_of(&l, "unlisted"), Verdict::Changed);
    }

    #[test]
    fn traced_records_get_their_own_block() {
        let mut lines = runs("base", "ops_per_cpu_s", &[1.0; 5]);
        lines.extend(runs("head", "ops_per_cpu_s", &[1.0; 5]));
        lines.push(line("base", "fig09-1c", true, &[("sim.ns_per_tick", 250.0)]));
        lines.push(line("head", "fig09-1c", true, &[("sim.ns_per_tick", 240.0)]));
        let (records, _) = read_log(log_of(&lines).as_bytes());
        let blocks = compare(&records, "base", "head", &dirs());
        assert_eq!(blocks.iter().map(|b| b.trace).collect::<Vec<_>>(), [false, true]);
        assert_eq!(blocks[1].rows[0].verdict, Verdict::Insufficient(1));
        let text = render(&blocks, "base", "head");
        assert!(
            text.contains(
                "fig09-1c — end to end: base base (5 runs), head head (5 runs), seed 42"
            ),
            "{text}"
        );
        assert!(text.contains("fig09-1c — per layer (traced)"), "{text}");
        assert!(text.contains("insufficient (1)"), "{text}");
        assert!(text.contains("-4.0%"), "{text}");
    }

    #[test]
    fn each_seed_gets_its_own_block() {
        let lines: Vec<String> = [42, 7]
            .into_iter()
            .flat_map(|seed| {
                ["base", "head"].map(|rev| {
                    seeded_line(rev, "fig09-1c", seed, false, &[("ops_per_cpu_s", seed as f64)])
                })
            })
            .collect();
        let (records, _) = read_log(log_of(&lines).as_bytes());
        assert_eq!(records.iter().map(|r| r.seed).collect::<Vec<_>>(), [42, 42, 7, 7]);
        let blocks = compare(&records, "base", "head", &dirs());
        assert_eq!(blocks.iter().map(|b| b.seed).collect::<Vec<_>>(), [7, 42]);
        for b in &blocks {
            assert_eq!((b.base_runs, b.head_runs), (1, 1));
            assert_eq!(b.rows[0].base, Some([b.seed as f64; 3]), "seeds pooled");
        }
        let text = render(&blocks, "base", "head");
        assert!(text.contains("(1 runs), seed 7\n"), "{text}");
        assert!(text.contains("(1 runs), seed 42\n"), "{text}");
        // A seed that is not a whole non-negative number is malformed.
        for bad in ["\"seed\":-1,", "\"seed\":4.5,", "\"seed\":\"42\","] {
            let l = lines[0].replacen("\"seed\":42,", bad, 1);
            assert_eq!(classify(&l), Line::Malformed, "{l}");
        }
    }

    #[test]
    fn directions_come_from_the_benchmark_file() {
        let bench = json::parse(
            "{\"end_to_end\":[{\"name\":\"ops_per_cpu_s\",\"better\":\"higher\",\"bound\":0.25},{\"name\":\"op_p50_us\",\"better\":\"lower\",\"bound\":0.1}],\
             \"per_layer\":[{\"name\":\"pf.accuracy\",\"better\":\"higher\"}]}",
        )
        .unwrap();
        let r = rules(&bench);
        assert_eq!(r.len(), 3);
        let rule = |higher_is_better, bound| Rule { higher_is_better, bound };
        assert_eq!(r["ops_per_cpu_s"], rule(true, Some(0.25)));
        assert_eq!(r["op_p50_us"], rule(false, Some(0.1)));
        assert_eq!(r["pf.accuracy"], rule(true, None));
    }

    #[test]
    fn quartiles_interpolate() {
        assert_eq!(quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]), [2.0, 3.0, 4.0]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert_eq!(quartiles(&[1.0, 2.0]), [1.25, 1.5, 1.75]);
    }
}
