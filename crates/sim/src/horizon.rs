//! Event-horizon scheduling support: runtime control and skip accounting.
//!
//! The simulator's [`crate::Simulation::run`] loop does not tick through
//! cycles in which provably nothing can happen. Each executed tick computes
//! the *event horizon* — the earliest future cycle at which any simulated
//! state can change — and the run loop jumps the cycle counter straight to
//! it (see `DESIGN.md` §5d for the full argument that this is exact, not an
//! approximation). This module holds the pieces that live outside the hot
//! loop: the `PPF_NO_SKIP` escape hatch and the per-run [`CycleStats`]
//! accounting that [`crate::Simulation::cycle_stats`] reports.
//!
//! Control via `PPF_NO_SKIP`:
//!
//! | value                      | behaviour                                 |
//! |----------------------------|-------------------------------------------|
//! | unset                      | cycle skipping enabled (the default)      |
//! | `0`, `off`, `false`, `no`  | cycle skipping enabled                    |
//! | anything else              | naive per-cycle ticking (debug/diff mode) |
//!
//! The setting is sampled once per [`crate::Simulation`] at construction;
//! tests that must not race on process-global environment use
//! [`crate::Simulation::set_cycle_skip`] instead.

/// Cycle-accounting summary of one (or many) simulation runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleStats {
    /// Ticks actually executed (each runs the full per-cycle phase logic).
    pub ticks: u64,
    /// Cycles jumped over without executing a tick. Every skipped cycle is
    /// provably a no-op: no fill completes, no core can retire, dispatch,
    /// or issue, and no deferred queue is pending.
    pub skipped_cycles: u64,
    /// Total simulated cycles advanced (`ticks + skipped_cycles`).
    pub total_cycles: u64,
}

impl CycleStats {
    /// Fraction of simulated cycles that were skipped rather than executed
    /// (`0.0` for an empty tally, or when skipping is disabled).
    pub fn skip_ratio(&self) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        self.skipped_cycles as f64 / self.total_cycles as f64
    }
}

/// Resolves the cycle-skip setting from `PPF_NO_SKIP`: `true` means skip
/// (the default), `false` means naive per-cycle ticking.
pub fn skip_cycles_from_env() -> bool {
    let raw = std::env::var("PPF_NO_SKIP").ok();
    skip_cycles_from(raw.as_deref())
}

/// Pure parser behind [`skip_cycles_from_env`]; `raw` is the variable's
/// value, `None` when unset. Any value other than an explicit "off" opts
/// into the naive loop — the variable *disables* an optimisation, so
/// misspellings must err on the side the user asked for.
fn skip_cycles_from(raw: Option<&str>) -> bool {
    match raw {
        None => true,
        Some(v) => matches!(v.trim().to_ascii_lowercase().as_str(), "" | "0" | "off" | "false" | "no"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_and_off_values_enable_skipping() {
        for v in [None, Some(""), Some("0"), Some("off"), Some("FALSE"), Some(" no ")] {
            assert!(skip_cycles_from(v), "{v:?}");
        }
    }

    #[test]
    fn any_other_value_disables_skipping() {
        for v in ["1", "on", "true", "yes", "definitely"] {
            assert!(!skip_cycles_from(Some(v)), "{v:?}");
        }
    }

    #[test]
    fn skip_ratio_math() {
        let s = CycleStats { ticks: 25, skipped_cycles: 75, total_cycles: 100 };
        assert!((s.skip_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(CycleStats::default().skip_ratio(), 0.0);
    }
}
