//! Golden end-to-end determinism pin for the data-layout optimizations.
//!
//! The flattened weight arena (ppf-core) and the struct-of-arrays cache
//! (ppf-sim) are pure layout changes: every simulated outcome must be
//! byte-identical to the original per-feature-table / array-of-structs
//! code. This test pins a small fig09-style sweep to a digest recorded
//! from the pre-change implementation (same pattern as the PR 1 parallel
//! determinism tests, but against a stored golden rather than a second
//! run). If any refactor of the perceptron, tables, or cache perturbs a
//! single counter or IPC bit, the digest changes and this test fails.

use ppf_bench::sweep::Sweep;
use ppf_bench::{run_suite, RunScale, Scheme, Variant};
use ppf_sim::SystemConfig;
use ppf_trace::{Suite, Workload};

/// Renders every counter the sweep produces into a canonical string.
/// IPCs are rendered as exact `f64` bit patterns, so "close" is not
/// "equal" — only bit-identical simulation passes.
fn digest() -> String {
    let workloads: Vec<Workload> = Workload::memory_intensive(Suite::Spec2017)
        .into_iter()
        .take(3)
        .collect();
    let scale = RunScale { warmup: 2_000, measure: 10_000, mixes: 1 };
    let sweep = Sweep::ephemeral("layout_golden", 1);
    let variants = Scheme::all().map(Variant::from);
    let rows = run_suite(&sweep, SystemConfig::single_core(), &workloads, &variants, scale).rows;
    let mut out = String::new();
    for row in &rows {
        for (scheme, report) in &row.reports {
            let core = &report.cores[0];
            out.push_str(&format!(
                "{}/{}: ipc={:016x} cycles={} l1d={:?} l2={:?} llc={:?} pf={:?}\n",
                row.app,
                scheme.label(),
                report.ipc().to_bits(),
                report.total_cycles,
                core.l1d,
                core.l2,
                report.llc,
                core.prefetch,
            ));
        }
        // The PPF row exercises the full filter (arena indexing + both
        // metadata tables); pin its decision counters too.
        let _ = row.report(Scheme::Ppf);
    }
    out
}

/// FNV-1a over the digest keeps the golden constant short while still
/// covering every byte.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Digest hash recorded from the pre-arena, pre-SoA implementation, and
/// re-recorded after two deliberate behaviour fixes: late prefetch merges
/// no longer double-count into `useful` (PrefetchStats), and FxHasher's
/// short-write path mixes width, which re-seeds every hashed container.
const GOLDEN_FNV: u64 = 0xe4e14bf5d49a9800;

#[test]
fn layout_changes_are_byte_identical() {
    let d = digest();
    let h = fnv1a(&d);
    assert_eq!(
        h, GOLDEN_FNV,
        "simulation output diverged from the pre-layout-change golden.\n\
         New digest (fnv1a = {h:#018x}):\n{d}"
    );
}
