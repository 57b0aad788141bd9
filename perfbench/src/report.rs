//! Result records, summary statistics and the output format.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    // A NaN or infinity would make the JSON line unparsable; ratios over an
    // empty denominator read as 0 instead.
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// What a workload reports back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output matched its reference (digests, oracle replays).
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics; empty unless the run was traced.
    pub layer: Vec<Metric>,
    /// Extra human-readable lines (sample counts, digests, the workload's
    /// own metric names such as `serve_req_per_s`).
    pub notes: Vec<String>,
}

/// Every per-layer metric, in output order. Each workload fills the
/// layers it exercises; a layer a workload never enters reads 0 (work done
/// and time busy are both zero there).
#[derive(Debug, Default)]
pub struct Layers {
    pub trace_ns_per_record: f64,
    pub trace_records: f64,
    pub sim_self_ns_per_instr: f64,
    pub sim_ticks: f64,
    pub sim_skip_ratio: f64,
    pub sim_ns_per_tick: f64,
    /// Throughput per scheme: no-pf, BOP, DA-AMPM, SPP, PPF.
    pub scheme_minstr_per_s: [f64; 5],
    pub spp_ns_per_call: f64,
    pub spp_cands_per_call: f64,
    pub ppf_ns_per_cand: f64,
    pub ppf_feedback_ns_per_kinstr: f64,
    pub ppf_accept_ratio: f64,
    pub pf_accuracy: f64,
    pub serve_codec_us: f64,
    pub serve_score_us: f64,
    pub serve_checkpoint_us: f64,
    pub serve_checkpoints: f64,
    pub serve_hop_us: f64,
    pub serve_accept_ratio: f64,
    pub trace_overhead: f64,
}

impl Layers {
    pub fn metrics(&self) -> Vec<Metric> {
        let [nopf, bop, daampm, spp, ppf] = self.scheme_minstr_per_s;
        vec![
            metric("trace.ns_per_record", self.trace_ns_per_record, "ns"),
            metric("trace.records", self.trace_records, "count"),
            metric("sim.self_ns_per_instr", self.sim_self_ns_per_instr, "ns"),
            metric("sim.ticks", self.sim_ticks, "count"),
            metric("sim.skip_ratio", self.sim_skip_ratio, "ratio"),
            metric("sim.ns_per_tick", self.sim_ns_per_tick, "ns"),
            metric("scheme.nopf.minstr_per_s", nopf, "Minstr/s"),
            metric("scheme.bop.minstr_per_s", bop, "Minstr/s"),
            metric("scheme.daampm.minstr_per_s", daampm, "Minstr/s"),
            metric("scheme.spp.minstr_per_s", spp, "Minstr/s"),
            metric("scheme.ppf.minstr_per_s", ppf, "Minstr/s"),
            metric("spp.ns_per_call", self.spp_ns_per_call, "ns"),
            metric("spp.cands_per_call", self.spp_cands_per_call, "count"),
            metric("ppf.ns_per_cand", self.ppf_ns_per_cand, "ns"),
            metric(
                "ppf.feedback_ns_per_kinstr",
                self.ppf_feedback_ns_per_kinstr,
                "ns",
            ),
            metric("ppf.accept_ratio", self.ppf_accept_ratio, "ratio"),
            metric("pf.accuracy", self.pf_accuracy, "ratio"),
            metric("serve.codec_us", self.serve_codec_us, "us"),
            metric("serve.score_us", self.serve_score_us, "us"),
            metric("serve.checkpoint_us", self.serve_checkpoint_us, "us"),
            metric("serve.checkpoints", self.serve_checkpoints, "count"),
            metric("serve.hop_us", self.serve_hop_us, "us"),
            metric("serve.accept_ratio", self.serve_accept_ratio, "ratio"),
            metric("trace_overhead", self.trace_overhead, "ratio"),
        ]
    }
}

/// FNV-1a, the repository's digest hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Linear-interpolated quantile of `xs` (sorted in place), `q` in `[0, 1]`.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let pos = q * (xs.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time this process has used, all threads together, in seconds
/// (`utime + stime` from `/proc/self/stat`, in 100 Hz user ticks).
pub fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// The git revision of the working directory, read from `.git` without
/// running git; `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|p| {
            p.lines()
                .find_map(|l| l.strip_suffix(reference).map(|r| r.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Per-process host record. The SIMD level is picked per process by a
/// timing shoot-out, so two runs on one host can use different lane code;
/// this line is what shows it when throughput turns bimodal.
pub fn host_record() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"git_rev\":{},\"cpu\":{},\"nproc\":{nproc},\"simd\":{}}}",
        json_str(&git_rev()),
        json_str(&cpu_model()),
        json_str(&format!("{:?}", ppf_sim::simd::active_level())),
    )
}

/// Prints the human-readable table, then the result as the last line.
pub fn print(workload: &str, outcome: &Outcome, trace: bool) {
    println!("workload {workload}");
    for n in &outcome.notes {
        println!("  {n}");
    }
    let row = |m: &Metric| {
        println!(
            "  {:<32} {:>16} {}",
            m.name,
            format!("{:.6}", m.value),
            m.unit
        )
    };
    let failed_share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    row(&metric("failed_share", failed_share, "ratio"));
    outcome.end_to_end.iter().for_each(row);
    if trace {
        println!("  -- per layer (traced run) --");
        outcome.layer.iter().for_each(row);
    }
    let chosen = if trace {
        &outcome.layer
    } else {
        &outcome.end_to_end
    };
    let body: Vec<String> = chosen
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        body.join(",")
    );
}
