//! Chaos-mode integration tests: injected tenant panics, checkpoint
//! corruption, a hung shard, and a 10x load spike — the daemon must never
//! stall a caller, quarantined tenants must keep their shard serving, and
//! the warm restart must be clean.

use std::path::PathBuf;
use std::time::Duration;

use ppf_bench::fault::FaultSpec;
use ppf_serve::daemon::{Daemon, ServeConfig};
use ppf_serve::loadgen::{run_drill, silence_injected_panics, DrillConfig};
use ppf_serve::protocol::{Candidate, ScoreRequest};
use ppf_trace::{MultiTenantReplay, Suite};

fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ppf-serve-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn req(tenant: &str, i: u64) -> ScoreRequest {
    let addr = 0x3000_0000 + i * 64;
    ScoreRequest {
        tenant: tenant.into(),
        candidates: vec![Candidate {
            inputs: ppf::FeatureInputs {
                trigger_addr: addr,
                trigger_pc: 0x40_0000 + (i % 7) * 4,
                delta: 1,
                ..ppf::FeatureInputs::default()
            },
            target: addr + 64,
        }],
        demands: vec![addr],
        evictions: vec![],
    }
}

#[test]
fn tenant_panic_quarantines_only_that_tenant() {
    silence_injected_panics();
    let dir = tmpdir("panic");
    let daemon = Daemon::start(ServeConfig {
        shards: 1, // both tenants share a shard: isolation must be per tenant
        checkpoint_dir: dir.clone(),
        checkpoint_every: 4,
        deadline: Duration::from_secs(5),
        faults: vec![FaultSpec::TenantPanic { pat: "victim".into(), nth: 6 }],
        ..ServeConfig::default()
    });
    let mut degraded_victim = 0;
    for i in 0..20 {
        let v = daemon.score(req("t000-victim", i));
        degraded_victim += u64::from(v.degraded);
        let b = daemon.score(req("t001-bystander", i));
        assert!(!b.degraded, "bystander on the same shard must be unaffected");
    }
    assert_eq!(degraded_victim, 1, "exactly the panicked batch degrades");
    let c = daemon.counters();
    assert_eq!(c.tenant_restarts.load(std::sync::atomic::Ordering::Relaxed), 1);
    // The victim kept serving after its rebuild.
    let reply = daemon.score(req("t000-victim", 99));
    assert!(!reply.degraded);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_chaos_drill_passes_acceptance() {
    silence_injected_panics();
    let dir = tmpdir("drill");
    let mut cfg = DrillConfig::default();
    cfg.serve.checkpoint_dir = dir.clone();

    // Route-aware slow shard: stall whichever shard serves tenant 0, so
    // the supervisor provably has something to replace.
    let probe = Daemon::start(ServeConfig {
        shards: cfg.serve.shards,
        checkpoint_dir: dir.join("probe"),
        ..ServeConfig::default()
    });
    let names =
        MultiTenantReplay::new(Suite::Spec2017, cfg.tenants, cfg.batch, 0xC0FFEE).tenant_names();
    let slow = probe.route(&names[0]);
    probe.shutdown();

    cfg.serve.faults = vec![
        FaultSpec::TenantPanic { pat: names[1].clone(), nth: 4 },
        FaultSpec::CheckpointBitflip { pat: names[2].clone() },
        FaultSpec::SlowShard { shard: slow, millis: 1500 },
        FaultSpec::LoadSpike { factor: 10 },
    ];

    let report = run_drill(&cfg);
    assert!(report.requests > 100, "the spike schedule actually ran");
    assert_eq!(report.stalled_callers, 0, "no caller may ever stall: {report:?}");
    assert!(report.tenant_restarts >= 1, "injected panic must trigger a rebuild");
    assert!(report.shard_replacements >= 1, "stalled shard must be replaced");
    assert!(report.degraded > 0, "chaos must be visible in the counters");
    assert!(report.checkpoint_bitflips >= 1, "corruption was injected");
    assert!(report.checkpoint_drops >= 1, "CRC must catch the corruption on load");
    assert!(report.warm_restored >= 1, "intact tenants warm start");
    assert_eq!(
        report.warm_unexplained_mismatch, 0,
        "every mismatch must be explained by injected corruption: {report:?}"
    );
    assert!(report.passed());
    // The machine-readable report line validates as a `drill` record.
    let records = ppf_analysis::observe::parse_document(&report.to_jsonl()).expect("valid drill line");
    assert_eq!(records[0].kind(), ppf_analysis::Kind::Drill);
    assert_eq!(records[0].get("stalled_callers"), Some(0.0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overload_sheds_but_never_blocks() {
    let dir = tmpdir("overload");
    let daemon = Daemon::start(ServeConfig {
        shards: 1,
        queue_capacity: 4,
        tenant_quota: 2,
        deadline: Duration::from_millis(50),
        checkpoint_dir: dir.clone(),
        faults: vec![FaultSpec::SlowShard { shard: 0, millis: 30 }],
        ..ServeConfig::default()
    });
    // Hammer one tenant from several threads; the quota and shed-oldest
    // policies must answer everything within the deadline envelope.
    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        for t in 0..4 {
            let daemon = &daemon;
            scope.spawn(move || {
                for i in 0..10 {
                    let reply = daemon.score(req("t000-hog", t * 100 + i));
                    assert_eq!(reply.decisions.len(), 1);
                }
            });
        }
    });
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "40 requests against a 30ms/job shard must shed, not queue unboundedly"
    );
    let c = daemon.counters();
    let shed = c.shed_overflow.load(std::sync::atomic::Ordering::Relaxed)
        + c.shed_quota.load(std::sync::atomic::Ordering::Relaxed)
        + c.deadline_misses.load(std::sync::atomic::Ordering::Relaxed);
    assert!(shed > 0, "pressure must show up as shed/degraded work");
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
