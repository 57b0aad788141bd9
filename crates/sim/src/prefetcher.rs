//! The prefetcher interface the simulator drives.
//!
//! Mirroring ChampSim (and the paper's Figure 4), a prefetcher is attached
//! to the L2: it is *triggered* on every demand access to the L2, may emit
//! prefetch requests targeted at the L2 or the LLC, and receives feedback
//! when prefetched lines are used or evicted.

use crate::addr;
use crate::telemetry::FilterCounters;
use std::any::Any;

/// Where a prefetch fill is directed (paper: high-confidence prefetches go
/// to L2, low-confidence ones to the larger LLC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FillLevel {
    /// Fill into the L2 (and the LLC below it).
    L2,
    /// Fill into the LLC only.
    Llc,
}

/// A prefetch emitted by a prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrefetchRequest {
    /// Block-aligned byte address to prefetch.
    pub addr: u64,
    /// Target fill level.
    pub fill: FillLevel,
}

impl PrefetchRequest {
    /// Creates a request, aligning the address to its block.
    pub fn new(addr: u64, fill: FillLevel) -> Self {
        Self { addr: addr::block_align(addr), fill }
    }

    /// Block number of the request.
    pub fn block(&self) -> u64 {
        addr::block_number(self.addr)
    }
}

/// Context of the demand access that triggered the prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessContext {
    /// Program counter of the triggering instruction.
    pub pc: u64,
    /// Byte address of the demand access.
    pub addr: u64,
    /// The access was a store.
    pub is_store: bool,
    /// The access hit in the L2.
    pub l2_hit: bool,
    /// Current core cycle.
    pub cycle: u64,
    /// Index of the issuing core.
    pub core: usize,
}

/// Information about an L2 eviction, delivered to the prefetcher for
/// training (the paper trains PPF negatively when a prefetched line is
/// evicted unused).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictionInfo {
    /// Block-aligned byte address of the victim.
    pub addr: u64,
    /// The victim had been brought in by a prefetch.
    pub was_prefetch: bool,
    /// The victim was demanded at least once while resident.
    pub was_used: bool,
}

/// A hardware prefetcher attached to the L2 cache.
///
/// Implementations must be deterministic. The simulator calls the hooks in
/// this order each cycle: evictions first, then demand accesses (which also
/// collect new prefetch requests), then fill notifications.
///
/// `Any` is a supertrait so a finished run can hand a prefetcher back by its
/// concrete type (see [`crate::Simulation::prefetcher`]).
pub trait Prefetcher: Any {
    /// Called on every demand access to the L2 (the trigger point). Push any
    /// prefetch requests into `out`; the simulator applies queue limits,
    /// redundancy and MSHR checks afterwards.
    fn on_demand_access(&mut self, ctx: &AccessContext, out: &mut Vec<PrefetchRequest>);

    /// Called when a demand access hits a line that a prefetch brought in
    /// (first use only) — the "useful prefetch" feedback event.
    ///
    /// Feedback is deliberately **address-keyed**: the cache models real
    /// hardware, which knows only which block was hit, not which internal
    /// scheme of a composed prefetcher predicted it. Prefetchers that fuse
    /// multiple schemes (see `ppf_prefetchers::Hybrid` behind the PPF
    /// wrapper) resolve the address back to the issuing scheme via their
    /// own issued-prefetch tracking table before routing credit, rather
    /// than expecting provenance on the wire here.
    fn on_useful_prefetch(&mut self, addr: u64) {
        let _ = addr;
    }

    /// Called when the L2 evicts a line.
    fn on_eviction(&mut self, info: &EvictionInfo) {
        let _ = info;
    }

    /// Called when the shared LLC evicts a line a prefetch brought in that
    /// was never demanded. The LLC does not track which core prefetched the
    /// line, so every core's prefetcher is notified; filters match against
    /// their own metadata tables (this is how LLC-directed prefetches get
    /// negative feedback).
    fn on_llc_eviction(&mut self, info: &EvictionInfo) {
        let _ = info;
    }

    /// Called when a prefetch fill completes at `level`.
    fn on_prefetch_fill(&mut self, addr: u64, level: FillLevel) {
        let _ = (addr, level);
    }

    /// Display name (used in result tables).
    fn name(&self) -> &'static str;

    /// Current prefetch-filter counters, for telemetry snapshots. Filterless
    /// prefetchers keep the default (all zeros); only read when telemetry is
    /// enabled, so implementations may compute it rather than cache it.
    fn filter_counters(&self) -> FilterCounters {
        FilterCounters::default()
    }

    /// A human-readable introspection dump (weight saturation, margin
    /// histograms, recent verdicts — whatever the scheme tracks), rendered
    /// on demand for diagnostics. Only called on cold paths (invariant
    /// violations, end-of-run reporting), so allocation is fine here.
    fn telemetry_dump(&self) -> String {
        String::new()
    }
}

/// The no-prefetching baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoPrefetcher;

impl Prefetcher for NoPrefetcher {
    fn on_demand_access(&mut self, _ctx: &AccessContext, _out: &mut Vec<PrefetchRequest>) {}

    fn name(&self) -> &'static str {
        "none"
    }
}

impl<P: Prefetcher + ?Sized> Prefetcher for Box<P> {
    fn on_demand_access(&mut self, ctx: &AccessContext, out: &mut Vec<PrefetchRequest>) {
        (**self).on_demand_access(ctx, out)
    }

    fn on_useful_prefetch(&mut self, addr: u64) {
        (**self).on_useful_prefetch(addr)
    }

    fn on_eviction(&mut self, info: &EvictionInfo) {
        (**self).on_eviction(info)
    }

    fn on_llc_eviction(&mut self, info: &EvictionInfo) {
        (**self).on_llc_eviction(info)
    }

    fn on_prefetch_fill(&mut self, addr: u64, level: FillLevel) {
        (**self).on_prefetch_fill(addr, level)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn filter_counters(&self) -> FilterCounters {
        (**self).filter_counters()
    }

    fn telemetry_dump(&self) -> String {
        (**self).telemetry_dump()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_aligns_address() {
        let r = PrefetchRequest::new(0x12345, FillLevel::L2);
        assert_eq!(r.addr, 0x12340);
        assert_eq!(r.block(), 0x12340 >> 6);
    }

    #[test]
    fn no_prefetcher_emits_nothing() {
        let mut p = NoPrefetcher;
        let mut out = Vec::new();
        let ctx = AccessContext { pc: 0, addr: 0, is_store: false, l2_hit: false, cycle: 0, core: 0 };
        p.on_demand_access(&ctx, &mut out);
        assert!(out.is_empty());
        assert_eq!(p.name(), "none");
    }

    #[test]
    fn boxed_prefetcher_delegates() {
        let mut p: Box<dyn Prefetcher> = Box::new(NoPrefetcher);
        assert_eq!(p.name(), "none");
        let mut out = Vec::new();
        let ctx = AccessContext { pc: 0, addr: 0, is_store: false, l2_hit: true, cycle: 1, core: 0 };
        p.on_demand_access(&ctx, &mut out);
        p.on_useful_prefetch(0x40);
        p.on_eviction(&EvictionInfo { addr: 0x40, was_prefetch: true, was_used: false });
        p.on_prefetch_fill(0x80, FillLevel::Llc);
        assert!(out.is_empty());
    }
}
