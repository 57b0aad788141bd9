//! Hybrid-composition ablation support for the `fig_hybrid` binary: which
//! scheme fusions to evaluate, how to run one (workload × fusion) cell with
//! per-source attribution, and how to round-trip a cell through the sweep
//! checkpoint format (`Vec<f64>`).
//!
//! Not a paper figure — the paper filters a single unthrottled SPP — but
//! the natural extension it gestures at (Sec 7: PPF "can be adapted" to
//! other prefetchers): fuse several unthrottled candidate streams through
//! one perceptron filter and let a source-id feature learn per-scheme
//! trust, with useful/fill credit routed back to the issuing scheme.

use crate::{run_cell, RunScale};
use ppf::{Ppf, PpfConfig};
use ppf_prefetchers::{Bop, DaAmpm, Hybrid, LookaheadSource, Spp, MAX_SOURCES};
use ppf_sim::{NoPrefetcher, SystemConfig};
use ppf_trace::Workload;

/// The fusion ablation's schemes: the no-prefetch baseline, each member
/// filtered alone (single-member hybrids, so the comparison isolates the
/// fusion itself), and the two-member fusions named by the issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fusion {
    /// No prefetching (the normalization baseline).
    Baseline,
    /// PPF over unthrottled SPP alone.
    Spp,
    /// PPF over unthrottled BOP alone.
    Bop,
    /// PPF over unthrottled DA-AMPM alone.
    DaAmpm,
    /// PPF over SPP + BOP fused.
    SppBop,
    /// PPF over SPP + DA-AMPM fused.
    SppDaAmpm,
}

impl Fusion {
    /// Every column of the ablation, baseline first.
    pub fn all() -> [Fusion; 6] {
        [
            Fusion::Baseline,
            Fusion::Spp,
            Fusion::Bop,
            Fusion::DaAmpm,
            Fusion::SppBop,
            Fusion::SppDaAmpm,
        ]
    }

    /// The filtered columns (everything but the baseline).
    pub fn filtered() -> [Fusion; 5] {
        [Fusion::Spp, Fusion::Bop, Fusion::DaAmpm, Fusion::SppBop, Fusion::SppDaAmpm]
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Fusion::Baseline => "no-pf",
            Fusion::Spp => "PPF(SPP)",
            Fusion::Bop => "PPF(BOP)",
            Fusion::DaAmpm => "PPF(AMPM)",
            Fusion::SppBop => "PPF(SPP+BOP)",
            Fusion::SppDaAmpm => "PPF(SPP+AMPM)",
        }
    }

    /// The fused member sources, in [`SourceId`](ppf_prefetchers::SourceId)
    /// order; empty for the baseline.
    pub fn members(self) -> Vec<Box<dyn LookaheadSource>> {
        match self {
            Fusion::Baseline => vec![],
            Fusion::Spp => vec![Box::new(Spp::default())],
            Fusion::Bop => vec![Box::new(Bop::default())],
            Fusion::DaAmpm => vec![Box::new(DaAmpm::default())],
            Fusion::SppBop => vec![Box::new(Spp::default()), Box::new(Bop::default())],
            Fusion::SppDaAmpm => {
                vec![Box::new(Spp::default()), Box::new(DaAmpm::default())]
            }
        }
    }

    /// Member display names (matches `members()` order).
    pub fn member_names(self) -> Vec<&'static str> {
        Hybrid::new(self.members()).member_names()
    }

    /// Whether this column fuses more than one scheme (and therefore runs
    /// with the source-id feature table enabled).
    pub fn is_fused(self) -> bool {
        matches!(self, Fusion::SppBop | Fusion::SppDaAmpm)
    }
}

/// One (workload × fusion) cell: IPC plus the per-source attribution
/// counters the run accumulated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusionCell {
    /// Measured IPC.
    pub ipc: f64,
    /// Filter accepts attributed to each member.
    pub accepted: [u64; MAX_SOURCES],
    /// Filter rejects attributed to each member.
    pub rejected: [u64; MAX_SOURCES],
    /// Useful-prefetch events credited to each member.
    pub useful: [u64; MAX_SOURCES],
    /// Useful events whose issuer the tracking table had already evicted.
    pub unattributed: u64,
}

impl FusionCell {
    /// Flattens to the sweep checkpoint payload (`Vec<f64>`): IPC, then
    /// the three per-source arrays, then the unattributed count.
    pub fn to_checkpoint(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(2 + 3 * MAX_SOURCES);
        v.push(self.ipc);
        v.extend(self.accepted.iter().map(|&x| x as f64));
        v.extend(self.rejected.iter().map(|&x| x as f64));
        v.extend(self.useful.iter().map(|&x| x as f64));
        v.push(self.unattributed as f64);
        v
    }

    /// Inverse of [`Self::to_checkpoint`]. Returns `None` on a payload of
    /// the wrong arity (a checkpoint written by an incompatible build).
    pub fn from_checkpoint(v: &[f64]) -> Option<Self> {
        if v.len() != 2 + 3 * MAX_SOURCES {
            return None;
        }
        let arr = |at: usize| {
            let mut a = [0u64; MAX_SOURCES];
            for (dst, &x) in a.iter_mut().zip(&v[at..at + MAX_SOURCES]) {
                *dst = x as u64;
            }
            a
        };
        Some(Self {
            ipc: v[0],
            accepted: arr(1),
            rejected: arr(1 + MAX_SOURCES),
            useful: arr(1 + 2 * MAX_SOURCES),
            unattributed: v[1 + 3 * MAX_SOURCES] as u64,
        })
    }
}

/// Runs one (workload × fusion) cell on a single-core system.
///
/// Fused columns filter with [`PpfConfig::hybrid`] (the paper's nine
/// features plus the source-id table); single-member columns keep the
/// default nine so they measure each scheme exactly as the main figures
/// would filter it.
pub fn run_fusion(workload: &Workload, fusion: Fusion, scale: RunScale) -> FusionCell {
    let members = fusion.members();
    let cfg = SystemConfig::single_core();
    if members.is_empty() {
        let (report, _) = run_cell(cfg, workload, fusion.label(), Box::new(NoPrefetcher), scale);
        return FusionCell {
            ipc: report.cores[0].ipc(),
            accepted: [0; MAX_SOURCES],
            rejected: [0; MAX_SOURCES],
            useful: [0; MAX_SOURCES],
            unattributed: 0,
        };
    }
    let ppf_cfg = if fusion.is_fused() { PpfConfig::hybrid() } else { PpfConfig::default() };
    let pf = Box::new(Ppf::with_config(Hybrid::new(members), ppf_cfg));
    let (report, sim) = run_cell(cfg, workload, fusion.label(), pf, scale);
    let ppf = sim.prefetcher::<Ppf<Hybrid>>(0).expect("core 0 runs PPF over the fusion");
    let fs = ppf.filter_stats();
    FusionCell {
        ipc: report.cores[0].ipc(),
        accepted: fs.accepted_by_source,
        rejected: fs.rejected_by_source,
        useful: ppf.stats.useful_by_source,
        unattributed: ppf.stats.unattributed_useful,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RunScale {
        RunScale { warmup: 5_000, measure: 30_000, mixes: 1 }
    }

    #[test]
    fn checkpoint_round_trips() {
        let mut cell = FusionCell {
            ipc: 1.25,
            accepted: [0; MAX_SOURCES],
            rejected: [0; MAX_SOURCES],
            useful: [0; MAX_SOURCES],
            unattributed: 3,
        };
        cell.accepted[0] = 10;
        cell.accepted[1] = 7;
        cell.rejected[1] = 4;
        cell.useful[0] = 6;
        let v = cell.to_checkpoint();
        assert_eq!(FusionCell::from_checkpoint(&v), Some(cell));
        assert_eq!(FusionCell::from_checkpoint(&v[1..]), None, "wrong arity must not decode");
    }

    #[test]
    fn fused_run_attributes_both_members() {
        let w = Workload::by_name("603.bwaves_s").unwrap();
        let cell = run_fusion(&w, Fusion::SppBop, tiny());
        let decided: u64 = cell.accepted.iter().chain(&cell.rejected).sum();
        assert!(decided > 0, "fused run must judge candidates");
        let spp = cell.accepted[0] + cell.rejected[0];
        let bop = cell.accepted[1] + cell.rejected[1];
        assert!(spp > 0, "SPP member saw no decisions");
        assert!(bop > 0, "BOP member saw no decisions");
        // Only two members exist, so nothing may land beyond slot 1.
        let tail: u64 = cell.accepted[2..].iter().chain(&cell.rejected[2..]).sum();
        assert_eq!(tail, 0, "phantom source beyond the member count");
    }

    #[test]
    fn single_member_run_keeps_everything_in_slot_zero() {
        let w = Workload::by_name("603.bwaves_s").unwrap();
        let cell = run_fusion(&w, Fusion::Spp, tiny());
        assert!(cell.accepted[0] + cell.rejected[0] > 0);
        let tail: u64 = cell.accepted[1..].iter().chain(&cell.rejected[1..]).sum();
        assert_eq!(tail, 0);
    }

    #[test]
    fn member_names_match_member_order() {
        assert_eq!(Fusion::SppBop.member_names(), vec!["spp-unthrottled", "bop-unthrottled"]);
        assert_eq!(
            Fusion::SppDaAmpm.member_names(),
            vec!["spp-unthrottled", "da-ampm-unthrottled"]
        );
        for f in Fusion::filtered() {
            assert!(!f.label().is_empty());
            assert!(!f.members().is_empty());
        }
    }
}
