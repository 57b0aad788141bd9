//! The chaos drill's 10x load spike on shallow shard queues must reach the
//! shed policy, and still stall no caller.
//!
//! The drill itself runs at the daemon's default queue bounds (64 jobs per
//! shard, 16 per tenant). Its callers block on one request each, so its
//! queues stay far below those bounds and it sheds nothing. Here the
//! bounds sit at the caller count, and a hung shard holds the jobs its
//! callers gave up on, so the spike overflows them.

use std::path::PathBuf;

use ppf_serve::loadgen::{run_drill, DrillConfig};
use ppf_sim::fault::FaultSpec;

#[test]
fn a_spike_on_shallow_queues_sheds_and_stalls_no_caller() {
    let dir = std::env::temp_dir().join(format!("ppf-serve-spike-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = DrillConfig::default();
    cfg.serve.checkpoint_dir = PathBuf::from(&dir);
    cfg.serve.queue_capacity = cfg.callers;
    cfg.serve.tenant_quota = cfg.callers / 2;
    cfg.serve.faults = vec![
        FaultSpec::SlowShard { shard: 0, millis: 1500 },
        FaultSpec::LoadSpike { factor: 10 },
    ];
    let report = run_drill(&cfg);
    assert!(report.shed >= 1, "the spike must reach the shed policy: {report:?}");
    assert_eq!(report.stalled_callers, 0, "no caller may stall: {report:?}");
    assert!(report.shard_replacements >= 1, "the hung shard is replaced: {report:?}");
    assert!(report.passed(), "{report:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
