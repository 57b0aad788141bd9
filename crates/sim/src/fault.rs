//! `PPF_FAULT_INJECT` — the shared chaos-drill specification — and the
//! poison-tolerant lock every fault-isolated worker uses.
//!
//! One environment variable drives every fault-injection hook in the
//! workspace: the sweeps' job saboteurs (`panic:` / `hang:`) and the
//! serving daemon's chaos modes (tenant panics, checkpoint bit-flips, slow
//! shards, load spikes). Specs are comma-separated, so one drill can
//! combine several faults:
//!
//! ```text
//! PPF_FAULT_INJECT=tenant-panic:t003,checkpoint-bitflip:t007,load-spike:10
//! ```
//!
//! Parsing is *strict*: a malformed spec is a configuration error, and
//! binaries reject it with a clear message and exit code 2 (exactly like a
//! malformed `--threads`) rather than silently running a drill that injects
//! nothing — see [`specs_from_env_or_exit`]. Consumers ignore spec kinds
//! that don't apply to them (a sweep never sees a tenant, a daemon never
//! runs sweep jobs), so one combined spec can drive both.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks a mutex, recovering the guard from a poisoned lock. Sweep jobs and
/// serve scoring run under `catch_unwind`, so a panic never leaves the data
/// behind these locks half-updated: the poison flag carries no information.
pub fn lock_unpoisoned<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One parsed fault-injection directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultSpec {
    /// `panic:<substr>` — panic the first pending sweep job whose label
    /// contains the substring.
    JobPanic(String),
    /// `hang:<substr>` — hang the first pending sweep job whose label
    /// contains the substring (exercises the job watchdog).
    JobHang(String),
    /// `tenant-panic:<substr>[@<nth>]` — panic a serving tenant whose id
    /// contains the substring, on its `nth` scored batch (default 1).
    TenantPanic {
        /// Substring of the tenant id to sabotage.
        pat: String,
        /// Which scored batch panics (1-based).
        nth: u64,
    },
    /// `checkpoint-bitflip:<substr>` — flip one payload bit in every
    /// checkpoint record written for tenants whose id contains the
    /// substring (the CRC seal must catch it on warm-start).
    CheckpointBitflip {
        /// Substring of the tenant id whose records are corrupted.
        pat: String,
    },
    /// `slow-shard:<index>:<millis>` — stall shard `index` for `millis`
    /// before each batch it processes (exercises deadlines + the shard
    /// watchdog).
    SlowShard {
        /// Shard index to slow down.
        shard: usize,
        /// Injected delay per batch, in milliseconds.
        millis: u64,
    },
    /// `load-spike:<factor>` — the load generator multiplies its offered
    /// rate by `factor` during its spike window.
    LoadSpike {
        /// Rate multiplier (≥ 1).
        factor: u64,
    },
}

/// The accepted forms, for error messages.
const FORMS: &str = "panic:<substr>, hang:<substr>, tenant-panic:<substr>[@<nth>], \
                     checkpoint-bitflip:<substr>, slow-shard:<index>:<millis>, \
                     load-spike:<factor>";

fn nonempty(pat: &str, form: &str) -> Result<String, String> {
    if pat.is_empty() {
        return Err(format!("PPF_FAULT_INJECT: {form} requires a non-empty pattern"));
    }
    Ok(pat.to_string())
}

fn parse_num(v: &str, what: &str) -> Result<u64, String> {
    v.parse::<u64>()
        .map_err(|_| format!("PPF_FAULT_INJECT: {what} expects a non-negative integer, got `{v}`"))
}

/// Parses one `kind:arg` spec.
fn parse_one(spec: &str) -> Result<FaultSpec, String> {
    let Some((kind, arg)) = spec.split_once(':') else {
        return Err(format!(
            "PPF_FAULT_INJECT: `{spec}` has no `kind:` prefix (accepted forms: {FORMS})"
        ));
    };
    match kind {
        "panic" => Ok(FaultSpec::JobPanic(nonempty(arg, "panic:")?)),
        "hang" => Ok(FaultSpec::JobHang(nonempty(arg, "hang:")?)),
        "tenant-panic" => {
            let (pat, nth) = match arg.split_once('@') {
                Some((p, n)) => {
                    let nth = parse_num(n, "tenant-panic @<nth>")?;
                    if nth == 0 {
                        return Err(
                            "PPF_FAULT_INJECT: tenant-panic @<nth> is 1-based, got 0".to_string()
                        );
                    }
                    (p, nth)
                }
                None => (arg, 1),
            };
            Ok(FaultSpec::TenantPanic { pat: nonempty(pat, "tenant-panic:")?, nth })
        }
        "checkpoint-bitflip" => {
            Ok(FaultSpec::CheckpointBitflip { pat: nonempty(arg, "checkpoint-bitflip:")? })
        }
        "slow-shard" => {
            let Some((idx, ms)) = arg.split_once(':') else {
                return Err(format!(
                    "PPF_FAULT_INJECT: slow-shard expects <index>:<millis>, got `{arg}`"
                ));
            };
            let shard = parse_num(idx, "slow-shard <index>")? as usize;
            let millis = parse_num(ms, "slow-shard <millis>")?;
            if millis == 0 {
                return Err("PPF_FAULT_INJECT: slow-shard <millis> must be at least 1".to_string());
            }
            Ok(FaultSpec::SlowShard { shard, millis })
        }
        "load-spike" => {
            let factor = parse_num(arg, "load-spike <factor>")?;
            if factor == 0 {
                return Err("PPF_FAULT_INJECT: load-spike <factor> must be at least 1".to_string());
            }
            Ok(FaultSpec::LoadSpike { factor })
        }
        other => Err(format!(
            "PPF_FAULT_INJECT: unknown fault kind `{other}` (accepted forms: {FORMS})"
        )),
    }
}

/// Parses a comma-separated fault-spec list.
///
/// # Errors
///
/// Returns a message naming the first malformed spec and listing the
/// accepted forms. An empty string is an error (set the variable to
/// something or unset it).
pub fn parse_specs(s: &str) -> Result<Vec<FaultSpec>, String> {
    if s.trim().is_empty() {
        return Err(format!("PPF_FAULT_INJECT is set but empty (accepted forms: {FORMS})"));
    }
    s.split(',').map(|part| parse_one(part.trim())).collect()
}

/// Reads and parses `PPF_FAULT_INJECT`; unset means no faults.
///
/// # Errors
///
/// Propagates [`parse_specs`] errors.
pub fn specs_from_env() -> Result<Vec<FaultSpec>, String> {
    match std::env::var("PPF_FAULT_INJECT") {
        Ok(s) => parse_specs(&s),
        Err(_) => Ok(Vec::new()),
    }
}

/// [`specs_from_env`] for binary entry points: a malformed spec prints the
/// error and exits with code 2 — the same contract as a malformed
/// `--threads` (see `ppf_bench::runner::thread_count`).
pub fn specs_from_env_or_exit() -> Vec<FaultSpec> {
    match specs_from_env() {
        Ok(specs) => specs,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_every_accepted_form() {
        assert_eq!(parse_specs("panic:SPP").unwrap(), vec![FaultSpec::JobPanic("SPP".into())]);
        assert_eq!(parse_specs("hang:mix00").unwrap(), vec![FaultSpec::JobHang("mix00".into())]);
        assert_eq!(
            parse_specs("tenant-panic:t003").unwrap(),
            vec![FaultSpec::TenantPanic { pat: "t003".into(), nth: 1 }]
        );
        assert_eq!(
            parse_specs("tenant-panic:t003@7").unwrap(),
            vec![FaultSpec::TenantPanic { pat: "t003".into(), nth: 7 }]
        );
        assert_eq!(
            parse_specs("checkpoint-bitflip:t0").unwrap(),
            vec![FaultSpec::CheckpointBitflip { pat: "t0".into() }]
        );
        assert_eq!(
            parse_specs("slow-shard:2:250").unwrap(),
            vec![FaultSpec::SlowShard { shard: 2, millis: 250 }]
        );
        assert_eq!(parse_specs("load-spike:10").unwrap(), vec![FaultSpec::LoadSpike { factor: 10 }]);
    }

    #[test]
    fn comma_separated_specs_combine() {
        let specs = parse_specs("tenant-panic:t1, checkpoint-bitflip:t2 ,load-spike:10").unwrap();
        assert_eq!(specs.len(), 3);
        assert!(matches!(specs[0], FaultSpec::TenantPanic { .. }));
        assert!(matches!(specs[1], FaultSpec::CheckpointBitflip { .. }));
        assert!(matches!(specs[2], FaultSpec::LoadSpike { factor: 10 }));
    }

    #[test]
    fn malformed_specs_are_rejected_with_context() {
        for (spec, needle) in [
            ("", "empty"),
            ("panic", "no `kind:` prefix"),
            ("panic:", "non-empty pattern"),
            ("hang:", "non-empty pattern"),
            ("explode:x", "unknown fault kind `explode`"),
            ("tenant-panic:", "non-empty pattern"),
            ("tenant-panic:t1@", "non-negative integer"),
            ("tenant-panic:t1@zero", "non-negative integer"),
            ("tenant-panic:t1@0", "1-based"),
            ("checkpoint-bitflip:", "non-empty pattern"),
            ("slow-shard:1", "expects <index>:<millis>"),
            ("slow-shard:one:5", "non-negative integer"),
            ("slow-shard:1:0", "at least 1"),
            ("load-spike:", "non-negative integer"),
            ("load-spike:0", "at least 1"),
            ("panic:a,bogus", "no `kind:` prefix"),
        ] {
            let err = parse_specs(spec).expect_err(spec);
            assert!(err.contains(needle), "spec `{spec}`: error {err:?} lacks {needle:?}");
        }
    }
}
