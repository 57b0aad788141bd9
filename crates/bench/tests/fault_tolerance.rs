//! End-to-end fault tolerance for the sweep harness: a panicking job must
//! not take down its sweep, a hung job must be reaped by the watchdog, and
//! checkpoint/resume must skip completed work while reproducing results
//! bit-for-bit.

use ppf_bench::runner::{BoxedJob, FailReason};
use ppf_bench::sweep::{Checkpoint, Sweep};
use ppf_bench::{run_suite, RunScale, Scheme, SuiteOutcome, Variant};
use ppf_sim::SystemConfig;
use ppf_trace::{Suite, Workload};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ppf-fault-tolerance-{tag}-{}", std::process::id()))
}

/// An f64 whose bit pattern exercises the full mantissa (catches any
/// formatting round trip that loses precision).
const AWKWARD: f64 = std::f64::consts::PI / 3.0;

fn job(v: f64) -> BoxedJob<f64> {
    Box::new(move || v)
}

/// A single-core suite of three memory-intensive workloads at a tiny scale.
fn custom_suite(sweep: &Sweep, variants: &[Variant]) -> SuiteOutcome {
    let workloads: Vec<Workload> =
        Workload::memory_intensive(Suite::Spec2017).into_iter().take(3).collect();
    let scale = RunScale { warmup: 2_000, measure: 10_000, mixes: 1 };
    run_suite(sweep, SystemConfig::single_core(), &workloads, variants, scale)
}

/// The baseline and a PPF variant whose builder panics the first time it
/// is called: on a one-thread sweep, the first workload's PPF cell.
fn flaky_variants() -> [Variant; 2] {
    let first = AtomicBool::new(true);
    let flaky = Variant::new("ppf-flaky", move || {
        if first.swap(false, Ordering::SeqCst) {
            panic!("deliberate builder panic");
        }
        Scheme::Ppf.build()
    });
    [Scheme::Baseline.into(), flaky]
}

/// The workload names of a suite's complete rows.
fn apps(out: &SuiteOutcome) -> Vec<&str> {
    out.rows.iter().map(|r| r.app.as_str()).collect()
}

/// One job panics mid-sweep; the others complete, keep their input order,
/// and produce exactly the values they would have produced alone.
#[test]
fn panic_mid_sweep_leaves_other_results_intact() {
    let dir = tmp_dir("panic");
    let sweep = Sweep::new("panic_mid_sweep", 4, None, false, dir.clone());
    let jobs: Vec<(String, BoxedJob<f64>)> = vec![
        ("a".into(), job(1.25)),
        ("boom".into(), Box::new(|| panic!("deliberate test panic"))),
        ("c".into(), job(3.5)),
        ("d".into(), job(-0.0)),
    ];
    let out = sweep.run(jobs);
    assert_eq!(out.ok_count(), 3);
    let labels: Vec<&str> = out.results.iter().map(|(l, _)| l.as_str()).collect();
    assert_eq!(labels, ["a", "boom", "c", "d"], "input order preserved");
    assert_eq!(out.results[0].1.as_ref().unwrap().to_bits(), 1.25f64.to_bits());
    assert_eq!(out.results[2].1.as_ref().unwrap().to_bits(), 3.5f64.to_bits());
    assert_eq!(out.results[3].1.as_ref().unwrap().to_bits(), (-0.0f64).to_bits());
    let err = out.results[1].1.as_ref().unwrap_err();
    assert_eq!(err.label, "boom");
    match &err.reason {
        FailReason::Panicked(msg) => assert!(msg.contains("deliberate test panic"), "{msg}"),
        other => panic!("expected a panic failure, got {other:?}"),
    }

    // A suite cell whose prefetcher builder panics drops only its own
    // workload's row.
    let out = custom_suite(&Sweep::new("panic_builder", 1, None, false, dir.clone()), &flaky_variants());
    let names: Vec<String> = Workload::memory_intensive(Suite::Spec2017)
        .into_iter()
        .take(3)
        .map(|w| w.name().to_string())
        .collect();
    assert_eq!(apps(&out), [names[1].as_str(), names[2].as_str()]);
    assert_eq!(out.dropped, [names[0].clone()]);
    assert_eq!(out.failures.len(), 1);
    assert_eq!(out.failures[0].label, format!("{}/ppf-flaky", names[0]));
    std::fs::remove_dir_all(&dir).ok();
}

/// A hung job is cut off by the watchdog while fast jobs pass through.
#[test]
fn watchdog_reaps_hung_sweep_job() {
    let dir = tmp_dir("hang");
    let sweep =
        Sweep::new("hung_job", 2, Some(Duration::from_millis(50)), false, dir.clone());
    let jobs: Vec<(String, BoxedJob<f64>)> = vec![
        ("fast".into(), job(2.0)),
        (
            "stuck".into(),
            Box::new(|| loop {
                std::thread::sleep(Duration::from_secs(1));
            }),
        ),
    ];
    let out = sweep.run(jobs);
    assert_eq!(out.ok_count(), 1);
    let err = out.results[1].1.as_ref().unwrap_err();
    assert!(
        matches!(err.reason, FailReason::TimedOut(_)),
        "expected a timeout, got {:?}",
        err.reason
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Simulates checkpoint -> kill -> `--resume`: the second process sees the
/// first run's checkpoint file, re-runs only the job that never completed,
/// and every carried-over result is bit-identical to the original.
#[test]
fn resume_skips_completed_jobs_and_is_bit_identical() {
    let dir = tmp_dir("resume");
    std::fs::remove_dir_all(&dir).ok();
    let experiment = "resume_bit_identical";
    let runs = Arc::new(AtomicUsize::new(0));

    // First run: three jobs succeed, the fourth dies ("the kill").
    let first = {
        let sweep = Sweep::new(experiment, 1, None, false, dir.clone());
        let mut jobs: Vec<(String, BoxedJob<f64>)> = Vec::new();
        for (label, v) in [("w0", 0.1), ("w1", AWKWARD), ("w2", 1e-300)] {
            let runs = Arc::clone(&runs);
            jobs.push((
                label.into(),
                Box::new(move || {
                    runs.fetch_add(1, Ordering::SeqCst);
                    v
                }),
            ));
        }
        jobs.push(("w3".into(), Box::new(|| panic!("killed before completing"))));
        sweep.run(jobs)
    };
    assert_eq!(first.ok_count(), 3);
    assert_eq!(runs.load(Ordering::SeqCst), 3);

    // Second run with resume: completed jobs must come from the checkpoint
    // (the counter proves their closures never execute), only w3 re-runs.
    let second = {
        let sweep = Sweep::new(experiment, 1, None, true, dir.clone());
        let mut jobs: Vec<(String, BoxedJob<f64>)> = Vec::new();
        for (label, v) in [("w0", 0.1), ("w1", AWKWARD), ("w2", 1e-300)] {
            let runs = Arc::clone(&runs);
            jobs.push((
                label.into(),
                Box::new(move || {
                    runs.fetch_add(1, Ordering::SeqCst);
                    v
                }),
            ));
        }
        jobs.push(("w3".into(), job(4.0)));
        sweep.run(jobs)
    };
    assert_eq!(runs.load(Ordering::SeqCst), 3, "resumed jobs must not re-run");
    assert_eq!(second.resumed, 3);
    assert_eq!(second.ok_count(), 4);
    for i in 0..3 {
        let (la, a) = &first.results[i];
        let (lb, b) = &second.results[i];
        assert_eq!(la, lb);
        // Bit-identity, not float equality: encode() renders exact f64 bits.
        assert_eq!(
            a.as_ref().unwrap().encode(),
            b.as_ref().unwrap().encode(),
            "{la} must be byte-identical across resume"
        );
    }
    assert_eq!(second.results[3].1.as_ref().unwrap().to_bits(), 4.0f64.to_bits());

    // A custom-variant suite resumes the same way: every cell that finished
    // comes back from its record (builders that panic prove none re-runs),
    // and only the cell that failed runs, and fails, again.
    let experiment = "resume_custom_suite";
    let first = custom_suite(&Sweep::new(experiment, 1, None, false, dir.clone()), &flaky_variants());
    let panicking = ["no-pf", "ppf-flaky"]
        .map(|label| Variant::new(label, || panic!("must come from the checkpoint")));
    let second = custom_suite(&Sweep::new(experiment, 1, None, true, dir.clone()), &panicking);
    assert_eq!(second.resumed, 5, "every finished cell restores");
    assert_eq!(format!("{:?}", second.rows), format!("{:?}", first.rows));
    assert_eq!(second.dropped, first.dropped);
    let failed: Vec<&str> = second.failures.iter().map(|e| e.label.as_str()).collect();
    assert_eq!(failed, [first.failures[0].label.as_str()]);
    std::fs::remove_dir_all(&dir).ok();
}

/// NaN survives the checkpoint round trip with its exact payload (a plain
/// `{}` format would lose it); the checkpoint file itself carries the CRC
/// seal and the schema version tag.
#[test]
fn checkpoint_file_is_versioned_and_nan_safe() {
    let dir = tmp_dir("schema");
    std::fs::remove_dir_all(&dir).ok();
    let experiment = "schema_check";
    {
        let sweep = Sweep::new(experiment, 1, None, false, dir.clone());
        let out = sweep.run(vec![("nan".to_string(), job(f64::NAN))]);
        assert_eq!(out.ok_count(), 1);
    }
    let path = dir.join(format!("{experiment}.jsonl"));
    let text = std::fs::read_to_string(&path).expect("checkpoint written");
    assert!(text.starts_with("{\"crc\":\""), "CRC seal missing: {text}");
    assert!(text.contains("\"v\":2,"), "schema version tag missing: {text}");
    assert!(
        ppf_sim::ckpt::check(text.lines().next().unwrap()).is_ok(),
        "seal must verify: {text}"
    );
    {
        let sweep = Sweep::new(experiment, 1, None, true, dir.clone());
        let out = sweep.run(vec![(
            "nan".to_string(),
            Box::new(|| -> f64 { panic!("must come from the checkpoint") }) as BoxedJob<f64>,
        )]);
        assert!(out.results[0].1.as_ref().unwrap().is_nan());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `PPF_FAULT_INJECT=panic:<substr>` sabotages exactly one matching pending
/// job — the mechanism `scripts/verify.sh --faults` drives from outside.
#[test]
fn fault_injection_env_panics_matching_job() {
    // Env vars are process-global; runner/sweep tests in this binary run in
    // other threads, so scope the variable tightly and use a unique label.
    let dir = tmp_dir("inject");
    std::env::set_var("PPF_FAULT_INJECT", "panic:inject-target");
    let sweep = Sweep::new("fault_inject", 1, None, false, dir.clone());
    let out = sweep.run(vec![
        ("other".to_string(), job(1.0)),
        ("inject-target".to_string(), job(2.0)),
    ]);
    std::env::remove_var("PPF_FAULT_INJECT");
    assert_eq!(out.ok_count(), 1);
    let err = out.results[1].1.as_ref().unwrap_err();
    match &err.reason {
        FailReason::Panicked(msg) => {
            assert!(msg.contains("injected fault"), "{msg}");
        }
        other => panic!("expected injected panic, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}
