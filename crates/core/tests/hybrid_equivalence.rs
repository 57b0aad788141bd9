//! Differential tests for the hybrid combinator's equivalence claims:
//!
//! * A **single-member** `Hybrid` is an identity — `Ppf<Hybrid([Spp])>`
//!   must be bit-identical to `Ppf<Spp>` (requests, decision counters and
//!   weight digests) under arbitrary access/feedback interleavings.
//!   `crates/bench/tests/hybrid_identity.rs` checks the same identity on
//!   whole fig09 simulations.
//! * A **two-member** fusion is deterministic: identical inputs produce
//!   identical requests and identical final weights in fresh instances, so
//!   sweep parallelism (`--threads N`) cannot change fig_hybrid's results.

use ppf::{Ppf, PpfConfig};
use ppf_prefetchers::{Bop, Hybrid, LookaheadSource, Spp};
use ppf_sim::{AccessContext, EvictionInfo, FillLevel, Prefetcher};
use proptest::prelude::*;

fn ctx(pc: u64, addr: u64, cycle: u64) -> AccessContext {
    AccessContext { pc, addr, is_store: false, l2_hit: false, cycle, core: 0 }
}

/// One scripted step: which PC stream triggers, which block it touches,
/// and what feedback the previous step's prefetches receive.
type Step = (u8, u16, u8);

fn arb_script() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec((0u8..4, any::<u16>(), any::<u8>()), 1..200)
}

/// Drives `a` and `b` through the same access/feedback script, asserting
/// their emitted prefetch streams stay identical at every step. Feedback
/// (fill, useful hit, unused eviction) is derived deterministically from
/// the script byte and applied to both sides, so the streams only stay
/// aligned if the two prefetchers are genuinely equivalent.
fn drive_in_lockstep<A: Prefetcher, B: Prefetcher>(a: &mut A, b: &mut B, script: &[Step]) {
    let mut out_a = Vec::new();
    let mut out_b = Vec::new();
    for (i, &(pc_sel, block, event)) in script.iter().enumerate() {
        let pc = 0x400 + u64::from(pc_sel) * 0x40;
        // Small block space so streams revisit pages and prefetched lines.
        let addr = 0x10_0000 + u64::from(block % 2048) * 64;
        let c = ctx(pc, addr, i as u64);
        out_a.clear();
        out_b.clear();
        a.on_demand_access(&c, &mut out_a);
        b.on_demand_access(&c, &mut out_b);
        assert_eq!(out_a, out_b, "request streams diverged at step {i}");
        for (k, req) in out_a.iter().enumerate() {
            match (event as usize + k) % 4 {
                0 => {
                    a.on_prefetch_fill(req.addr, req.fill);
                    b.on_prefetch_fill(req.addr, req.fill);
                }
                1 => {
                    a.on_useful_prefetch(req.addr);
                    b.on_useful_prefetch(req.addr);
                }
                2 => {
                    let info =
                        EvictionInfo { addr: req.addr, was_prefetch: true, was_used: false };
                    a.on_eviction(&info);
                    b.on_eviction(&info);
                }
                _ => {} // in flight; no feedback this step
            }
        }
        // Occasionally evict a demand line too (trains nothing, but walks
        // the same code paths a cache would).
        if event & 0x10 != 0 {
            let info = EvictionInfo { addr, was_prefetch: false, was_used: true };
            a.on_eviction(&info);
            b.on_eviction(&info);
        }
    }
}

fn fill_of(level: FillLevel) -> u64 {
    match level {
        FillLevel::L2 => 2,
        FillLevel::Llc => 3,
    }
}

/// A digest of a full run for cross-instance comparison: every emitted
/// request in order, folded FNV-style.
fn run_digest<P: Prefetcher>(p: &mut P, script: &[Step]) -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut out = Vec::new();
    for (i, &(pc_sel, block, event)) in script.iter().enumerate() {
        let pc = 0x400 + u64::from(pc_sel) * 0x40;
        let addr = 0x10_0000 + u64::from(block % 2048) * 64;
        out.clear();
        p.on_demand_access(&ctx(pc, addr, i as u64), &mut out);
        for (k, req) in out.iter().enumerate() {
            digest ^= req.addr.wrapping_add(fill_of(req.fill));
            digest = digest.wrapping_mul(0x100_0000_01b3);
            match (event as usize + k) % 4 {
                0 => p.on_prefetch_fill(req.addr, req.fill),
                1 => p.on_useful_prefetch(req.addr),
                2 => p.on_eviction(&EvictionInfo {
                    addr: req.addr,
                    was_prefetch: true,
                    was_used: false,
                }),
                _ => {}
            }
        }
    }
    digest
}

fn single_member_hybrid() -> Ppf<Hybrid> {
    let members: Vec<Box<dyn LookaheadSource>> = vec![Box::new(Spp::default())];
    Ppf::new(Hybrid::new(members))
}

fn spp_bop_fusion() -> Ppf<Hybrid> {
    let members: Vec<Box<dyn LookaheadSource>> =
        vec![Box::new(Spp::default()), Box::new(Bop::default())];
    Ppf::with_config(Hybrid::new(members), PpfConfig::hybrid())
}

proptest! {
    /// `Hybrid([Spp])` ≡ bare `Spp` under PPF: same requests at every
    /// step, same decision counters, same trained weights.
    #[test]
    fn single_member_hybrid_is_bit_identical_to_bare_source(script in arb_script()) {
        let mut bare = Ppf::new(Spp::default());
        let mut hybrid = single_member_hybrid();
        drive_in_lockstep(&mut bare, &mut hybrid, &script);
        prop_assert_eq!(bare.filter_stats(), hybrid.filter_stats());
        prop_assert_eq!(
            bare.filter().weights_digest(),
            hybrid.filter().weights_digest(),
            "identical decisions must leave identical weights"
        );
        // Depth bookkeeping and per-source credit must agree too: the
        // single member is source 0, exactly like a bare source.
        prop_assert_eq!(bare.stats, hybrid.stats);
    }

    /// A fused two-member hybrid is deterministic: two fresh instances fed
    /// the same script emit identical request streams and train to
    /// identical weights (the property that makes parallel sweeps over
    /// fused schemes reproducible at any `--threads`).
    #[test]
    fn two_member_fusion_is_deterministic(script in arb_script()) {
        let mut first = spp_bop_fusion();
        let mut second = spp_bop_fusion();
        prop_assert_eq!(run_digest(&mut first, &script), run_digest(&mut second, &script));
        prop_assert_eq!(first.filter_stats(), second.filter_stats());
        prop_assert_eq!(first.filter().weights_digest(), second.filter().weights_digest());
        prop_assert_eq!(first.stats, second.stats);
    }
}

/// The fused filter actually exercises both members and the source-id
/// table: a deterministic strided script must produce decisions attributed
/// to both sources (not a proptest — one representative stream is enough,
/// and the assertion is about the fixture being meaningful).
#[test]
fn fusion_smoke_attributes_both_members() {
    let mut fused = spp_bop_fusion();
    let mut out = Vec::new();
    for i in 0..4000u64 {
        let addr = 0x20_0000 + (i % 512) * 64 * 2;
        out.clear();
        fused.on_demand_access(&ctx(0x400, addr, i), &mut out);
        for req in &out {
            fused.on_prefetch_fill(req.addr, req.fill);
            if i % 3 == 0 {
                fused.on_useful_prefetch(req.addr);
            }
        }
    }
    let fs = fused.filter_stats();
    let spp = fs.accepted_by_source[0] + fs.rejected_by_source[0];
    let bop = fs.accepted_by_source[1] + fs.rejected_by_source[1];
    assert!(spp > 0, "SPP member never judged");
    assert!(bop > 0, "BOP member never judged");
}
