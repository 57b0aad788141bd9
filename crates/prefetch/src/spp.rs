//! Signature Path Prefetcher (Kim et al., MICRO 2016) — the paper's
//! underlying prefetcher.
//!
//! SPP compresses the recent delta history of each 4 KB page into a 12-bit
//! *signature* (`sig' = (sig << 3) ^ encode(delta)`), correlates signatures
//! with likely next deltas in a Pattern Table, and *looks ahead*: it chases
//! its own highest-confidence prediction to speculate several accesses deep,
//! compounding a path confidence
//!
//! ```text
//! P_d = α · C_d · P_{d-1}
//! ```
//!
//! where `α` is the measured global accuracy and `C_d = C_delta / C_sig`.
//! Standalone SPP throttles with the paper's thresholds (`T_p = 25` to
//! prefetch at all, `T_f = 90` to fill into the L2 instead of the LLC).
//! Through [`LookaheadSource`], the same engine runs *unthrottled* so PPF
//! can do the filtering instead (paper Sec 4.1: "original thresholds
//! discarded").

use crate::lookahead::{Candidate, CandidateMeta, Feedback, LookaheadSource, SourceId};
use ppf_sim::addr::{page_number, page_offset_blocks, BLOCKS_PER_PAGE, BLOCK_BITS};
use ppf_sim::{AccessContext, FillLevel, Prefetcher, PrefetchRequest};

/// Most delta predictions a Pattern Table entry may hold
/// ([`SppConfig::deltas_per_entry`] is asserted against this), sizing the
/// inline delta and counter arrays of every entry.
pub const MAX_PATTERN_WAYS: usize = 16;

/// SPP configuration (defaults follow the paper's Table 3 structures).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SppConfig {
    /// Signature Table entries (pages tracked).
    pub signature_table_entries: usize,
    /// Pattern Table entries (signatures tracked).
    pub pattern_table_entries: usize,
    /// Delta predictions kept per pattern entry.
    pub deltas_per_entry: usize,
    /// Prefetch threshold `T_p` (percent).
    pub prefetch_threshold: u32,
    /// Fill threshold `T_f` (percent): at or above fills L2, below fills LLC.
    pub fill_threshold: u32,
    /// Maximum lookahead depth.
    pub max_depth: u8,
    /// Confidence floor (percent) below which even unthrottled lookahead
    /// stops (keeps candidate counts finite).
    pub confidence_floor: u32,
    /// Maximum candidates emitted per trigger.
    pub max_candidates: usize,
    /// Global History Register entries (cross-page bootstrap).
    pub ghr_entries: usize,
}

impl Default for SppConfig {
    fn default() -> Self {
        Self {
            signature_table_entries: 256,
            pattern_table_entries: 512,
            deltas_per_entry: 4,
            prefetch_threshold: 25,
            fill_threshold: 90,
            max_depth: 32,
            confidence_floor: 1,
            max_candidates: 40,
            ghr_entries: 8,
        }
    }
}

/// Encodes a block delta into SPP's 7-bit sign-magnitude form.
fn encode_delta(delta: i16) -> u16 {
    let mag = delta.unsigned_abs() & 0x3F;
    if delta < 0 {
        mag | 0x40
    } else {
        mag
    }
}

/// The signature update function from the paper:
/// `NewSignature = (OldSignature << 3) XOR Delta`, kept to 12 bits.
pub fn update_signature(sig: u16, delta: i16) -> u16 {
    ((sig << 3) ^ encode_delta(delta)) & 0xFFF
}

#[derive(Debug, Clone, Copy, Default)]
struct SigEntry {
    valid: bool,
    tag: u16,
    last_offset: u8,
    signature: u16,
}

/// `C_sig` halves when it reaches this: the paper's 4-bit counters.
const C_SIG_MAX: u8 = 16;

/// `RATIO[c_sig][c_d] = c_d * 100 / c_sig`, the walk's per-delta
/// confidence `C_d` in percent, for every counter value a Pattern Table
/// entry can hold (both counters stay at or below [`C_SIG_MAX`]). Row 0 is
/// never read: the walk stops at an untrained entry.
const RATIO: [[u16; C_SIG_MAX as usize + 1]; C_SIG_MAX as usize + 1] = {
    let mut t = [[0u16; C_SIG_MAX as usize + 1]; C_SIG_MAX as usize + 1];
    let mut c_sig = 1;
    while c_sig <= C_SIG_MAX as usize {
        let mut c_d = 0;
        while c_d <= C_SIG_MAX as usize {
            t[c_sig][c_d] = (c_d * 100 / c_sig) as u16;
            c_d += 1;
        }
        c_sig += 1;
    }
    t
};

/// One Pattern Table entry, held inline: the signature's occurrence
/// counter `C_sig` and up to [`MAX_PATTERN_WAYS`] deltas with their
/// counters `C_delta`, live in `..len`.
#[derive(Debug, Clone, Copy, Default)]
struct PatternEntry {
    c_sig: u8,
    len: u8,
    deltas: [i16; MAX_PATTERN_WAYS],
    c_delta: [u8; MAX_PATTERN_WAYS],
}

impl PatternEntry {
    /// The live deltas and their counters, way by way.
    fn ways(&self) -> impl Iterator<Item = (i16, u8)> + '_ {
        let len = usize::from(self.len);
        self.deltas[..len].iter().copied().zip(self.c_delta[..len].iter().copied())
    }

    /// Bumps (or allocates, evicting the first weakest) the counter for
    /// `delta`.
    fn train(&mut self, delta: i16, max_ways: usize) {
        self.c_sig += 1;
        let mut len = usize::from(self.len);
        if let Some(i) = self.deltas[..len].iter().position(|&d| d == delta) {
            self.c_delta[i] += 1;
        } else if len < max_ways {
            self.deltas[len] = delta;
            self.c_delta[len] = 1;
            len += 1;
        } else {
            let (victim, _) =
                self.c_delta[..len].iter().enumerate().min_by_key(|(_, &c)| c).expect("non-empty");
            self.deltas[victim] = delta;
            self.c_delta[victim] = 1;
        }
        // 4-bit counters: halve on saturation, preserving ratios.
        if self.c_sig >= C_SIG_MAX {
            self.c_sig >>= 1;
            for c in &mut self.c_delta[..len] {
                *c >>= 1;
            }
            // Drop dead ways so they don't block learning: each dead way
            // takes the last live one's place, as `Vec::swap_remove` would.
            let mut i = 0;
            while i < len {
                if self.c_delta[i] == 0 {
                    len -= 1;
                    self.deltas[i] = self.deltas[len];
                    self.c_delta[i] = self.c_delta[len];
                } else {
                    i += 1;
                }
            }
        }
        self.len = len as u8;
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct GhrEntry {
    valid: bool,
    signature: u16,
    confidence: u32,
    last_offset: u8,
    delta: i16,
}

/// Internal run statistics exposed for the paper's Sec 6.1 depth analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SppStats {
    /// Candidates emitted (post-throttle for standalone SPP; unthrottled via
    /// [`LookaheadSource`]).
    pub emitted: u64,
    /// Sum of emission depths (for average-depth reporting).
    pub depth_sum: u64,
    /// Maximum depth reached by any lookahead chain.
    pub max_depth_seen: u8,
}

impl SppStats {
    /// Average lookahead depth of emitted candidates.
    pub fn average_depth(&self) -> f64 {
        if self.emitted == 0 {
            return 0.0;
        }
        self.depth_sum as f64 / self.emitted as f64
    }
}

/// The Signature Path Prefetcher.
///
/// ```
/// use ppf_prefetchers::Spp;
/// use ppf_sim::{AccessContext, Prefetcher};
///
/// let mut spp = Spp::default();
/// let mut out = Vec::new();
/// // Walk a page sequentially; SPP learns the +1 pattern and prefetches.
/// for i in 0..32u64 {
///     out.clear();
///     let ctx = AccessContext {
///         pc: 0x400, addr: 0x10_0000 + i * 64,
///         is_store: false, l2_hit: true, cycle: i, core: 0,
///     };
///     spp.on_demand_access(&ctx, &mut out);
/// }
/// assert!(!out.is_empty(), "a learned unit stride produces prefetches");
/// ```
#[derive(Debug, Clone)]
pub struct Spp {
    cfg: SppConfig,
    signature_table: Vec<SigEntry>,
    pattern_table: Vec<PatternEntry>,
    ghr: Vec<GhrEntry>,
    ghr_next: usize,
    // Global accuracy α: C_useful / C_total, 10-bit counters per Table 3.
    c_total: u32,
    c_useful: u32,
    /// Reused candidate buffer of the throttled [`Prefetcher`] path.
    candidate_buf: Vec<Candidate>,
    /// Run statistics.
    pub stats: SppStats,
}

impl Spp {
    /// Creates an SPP with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if table sizes are zero or not powers of two.
    pub fn new(cfg: SppConfig) -> Self {
        assert!(
            cfg.signature_table_entries.is_power_of_two()
                && cfg.pattern_table_entries.is_power_of_two(),
            "table sizes must be powers of two"
        );
        assert!(cfg.deltas_per_entry > 0 && cfg.max_depth > 0, "degenerate SPP config");
        assert!(
            cfg.deltas_per_entry <= MAX_PATTERN_WAYS,
            "deltas_per_entry {} exceeds MAX_PATTERN_WAYS {MAX_PATTERN_WAYS}",
            cfg.deltas_per_entry
        );
        Self {
            signature_table: vec![SigEntry::default(); cfg.signature_table_entries],
            pattern_table: vec![PatternEntry::default(); cfg.pattern_table_entries],
            ghr: vec![GhrEntry::default(); cfg.ghr_entries.max(1)],
            ghr_next: 0,
            c_total: 1,
            c_useful: 1,
            candidate_buf: Vec::new(),
            stats: SppStats::default(),
            cfg,
        }
    }

    /// The current global-accuracy scale α, in percent. `C_total` counts
    /// prefetch fills, `C_useful` demand hits on prefetched lines (paper
    /// Table 3's 10-bit accuracy counters); both start optimistic so a cold
    /// predictor explores. Clamped to ≥ 25 so throttling never shuts SPP
    /// down entirely.
    pub fn alpha_percent(&self) -> u32 {
        if self.c_total == 0 {
            return 100;
        }
        (self.c_useful * 100 / self.c_total).clamp(25, 100)
    }

    /// Borrow of the configuration.
    pub fn config(&self) -> &SppConfig {
        &self.cfg
    }

    fn st_index(&self, page: u64) -> usize {
        // Hash high page bits in: distinct regions must not alias the same
        // entry just because their low page bits match.
        let h = page ^ (page >> 8) ^ (page >> 16);
        (h as usize) & (self.cfg.signature_table_entries - 1)
    }

    fn pt_index(&self, sig: u16) -> usize {
        (sig as usize) & (self.cfg.pattern_table_entries - 1)
    }

    /// Updates the Signature Table for an access and returns the signature
    /// *before* this access (the one the Pattern Table should be trained
    /// under), the observed delta (if any), and — for a fresh page
    /// bootstrapped from the GHR — the confidence the crossing path carried.
    fn update_st(&mut self, page: u64, offset: u8) -> (u16, Option<i16>, Option<u32>) {
        let idx = self.st_index(page);
        let tag = ((page ^ (page >> 16)) & 0xFFFF) as u16;
        let e = &mut self.signature_table[idx];
        if e.valid && e.tag == tag {
            let delta = offset as i16 - e.last_offset as i16;
            if delta == 0 {
                return (e.signature, None, None);
            }
            let old_sig = e.signature;
            e.signature = update_signature(old_sig, delta);
            e.last_offset = offset;
            (old_sig, Some(delta), None)
        } else {
            // New page: try a cross-page bootstrap from the GHR, inheriting
            // the crossing path's confidence.
            let boot = self.ghr_bootstrap(offset);
            let e = &mut self.signature_table[idx];
            e.valid = true;
            e.tag = tag;
            e.last_offset = offset;
            e.signature = boot.map(|(sig, _)| sig).unwrap_or(0);
            (e.signature, None, boot.map(|(_, conf)| conf))
        }
    }

    /// Searches the GHR for a page-crossing continuation landing on
    /// `offset`, returning the continued signature and its path confidence.
    fn ghr_bootstrap(&self, offset: u8) -> Option<(u16, u32)> {
        self.ghr
            .iter()
            .filter(|g| g.valid)
            .find(|g| {
                let predicted = g.last_offset as i16 + g.delta - BLOCKS_PER_PAGE as i16;
                predicted == offset as i16
            })
            .map(|g| (update_signature(g.signature, g.delta), g.confidence))
    }

    fn ghr_insert(&mut self, signature: u16, confidence: u32, last_offset: u8, delta: i16) {
        let slot = self.ghr_next;
        self.ghr[slot] = GhrEntry { valid: true, signature, confidence, last_offset, delta };
        self.ghr_next = (self.ghr_next + 1) % self.ghr.len();
    }

    /// Core engine: trains on the access, then walks the lookahead path and
    /// emits every candidate whose compounded confidence stays at or above
    /// `floor` (percent). `floor = T_p` gives standalone SPP; `floor =
    /// confidence_floor` gives the unthrottled stream for PPF.
    fn generate(&mut self, ctx: &AccessContext, floor: u32, out: &mut Vec<Candidate>) {
        let page = page_number(ctx.addr);
        let offset = page_offset_blocks(ctx.addr) as u8;
        let (train_sig, delta, boot_conf) = self.update_st(page, offset);

        // Train the Pattern Table under the pre-access signature.
        let mut current_sig = train_sig;
        if let Some(d) = delta {
            let idx = self.pt_index(train_sig);
            let ways = self.cfg.deltas_per_entry;
            self.pattern_table[idx].train(d, ways);
            current_sig = update_signature(train_sig, d);
        }

        // Lookahead walk. A GHR-bootstrapped page starts from the crossing
        // path's confidence rather than a fresh 100 (paper Sec 2.1).
        let alpha = self.alpha_percent();
        let mut path_conf: u32 = boot_conf.unwrap_or(100).clamp(1, 100);
        let mut offset_cursor = offset as i32;
        let mut depth: u8 = 1;
        let base = ctx.addr & !((1u64 << BLOCK_BITS) - 1);
        let page_base = base & !0xFFFu64;

        loop {
            // A copy, because `ghr_insert` below needs `&mut self`.
            let entry = self.pattern_table[self.pt_index(current_sig)];
            if entry.c_sig == 0 || entry.len == 0 {
                break;
            }
            let ratio = &RATIO[usize::from(entry.c_sig)];
            // Emit all deltas clearing the floor at this depth.
            let mut best: Option<(i16, u32)> = None;
            for (d, c_d) in entry.ways() {
                let conf = path_conf * u32::from(ratio[usize::from(c_d)]) * alpha / 10_000;
                if best.is_none_or(|(_, bc)| conf > bc) {
                    best = Some((d, conf));
                }
                if conf < floor {
                    continue;
                }
                let target = offset_cursor + d as i32;
                if !(0..BLOCKS_PER_PAGE as i32).contains(&target) {
                    // Page-crossing prediction: remember it in the GHR so the
                    // next page can bootstrap, but do not prefetch across.
                    self.ghr_insert(current_sig, conf, offset_cursor as u8, d);
                    continue;
                }
                if out.len() >= self.cfg.max_candidates {
                    break;
                }
                out.push(Candidate {
                    addr: page_base + target as u64 * 64,
                    meta: CandidateMeta {
                        depth,
                        signature: current_sig,
                        confidence: conf.min(100) as u8,
                        delta: d,
                        trigger_pc: ctx.pc,
                        trigger_addr: ctx.addr,
                        source: SourceId::PRIMARY,
                    },
                });
                self.stats.emitted += 1;
                self.stats.depth_sum += u64::from(depth);
                self.stats.max_depth_seen = self.stats.max_depth_seen.max(depth);
            }
            // Continue along the best path only.
            let Some((best_delta, best_conf)) = best else { break };
            if best_conf < floor || depth >= self.cfg.max_depth {
                break;
            }
            let next = offset_cursor + best_delta as i32;
            if !(0..BLOCKS_PER_PAGE as i32).contains(&next) {
                break; // path left the page; GHR entry was recorded above
            }
            offset_cursor = next;
            current_sig = update_signature(current_sig, best_delta);
            path_conf = best_conf;
            depth += 1;
        }
    }

    /// Fill level for a confidence under the paper's `T_f` rule.
    fn fill_for(&self, confidence: u8) -> FillLevel {
        if u32::from(confidence) >= self.cfg.fill_threshold {
            FillLevel::L2
        } else {
            FillLevel::Llc
        }
    }
}

impl Default for Spp {
    fn default() -> Self {
        Self::new(SppConfig::default())
    }
}

impl Prefetcher for Spp {
    fn on_demand_access(&mut self, ctx: &AccessContext, out: &mut Vec<PrefetchRequest>) {
        let mut cands = std::mem::take(&mut self.candidate_buf);
        cands.clear();
        let floor = self.cfg.prefetch_threshold;
        self.generate(ctx, floor, &mut cands);
        out.extend(
            cands.iter().map(|c| PrefetchRequest::new(c.addr, self.fill_for(c.meta.confidence))),
        );
        self.candidate_buf = cands;
    }

    fn on_useful_prefetch(&mut self, _addr: u64) {
        self.c_useful += 1;
        if self.c_useful >= 1024 {
            self.c_total >>= 1;
            self.c_useful >>= 1;
        }
    }

    fn on_prefetch_fill(&mut self, _addr: u64, _level: FillLevel) {
        self.c_total += 1;
        if self.c_total >= 1024 {
            self.c_total >>= 1;
            self.c_useful >>= 1;
        }
    }

    fn name(&self) -> &'static str {
        "spp"
    }
}

impl LookaheadSource for Spp {
    fn candidates(&mut self, ctx: &AccessContext, out: &mut Vec<Candidate>) {
        let floor = self.cfg.confidence_floor;
        self.generate(ctx, floor, out);
    }

    fn on_useful_prefetch(&mut self, fb: Feedback) {
        Prefetcher::on_useful_prefetch(self, fb.addr);
    }

    fn on_prefetch_fill(&mut self, fb: Feedback) {
        Prefetcher::on_prefetch_fill(self, fb.addr, FillLevel::L2);
    }

    fn name(&self) -> &'static str {
        "spp-unthrottled"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(pc: u64, addr: u64) -> AccessContext {
        AccessContext { pc, addr, is_store: false, l2_hit: false, cycle: 0, core: 0 }
    }

    fn drive_stream(spp: &mut Spp, base: u64, blocks: u64) -> Vec<PrefetchRequest> {
        let mut out = Vec::new();
        for i in 0..blocks {
            spp.on_demand_access(&ctx(0x400, base + i * 64), &mut out);
        }
        out
    }

    #[test]
    fn signature_update_matches_paper_formula() {
        assert_eq!(update_signature(0, 1), 1);
        assert_eq!(update_signature(1, 1), (1 << 3) ^ 1);
        // Negative delta sets the sign bit of the 7-bit encoding.
        assert_eq!(update_signature(0, -1), 0x41);
        // Result stays within 12 bits.
        assert_eq!(update_signature(0xFFF, 63) & !0xFFF, 0);
    }

    #[test]
    fn learns_unit_stride_and_prefetches_ahead() {
        let mut spp = Spp::default();
        let reqs = drive_stream(&mut spp, 0x10_0000, 32);
        assert!(!reqs.is_empty(), "SPP must start prefetching a unit stride");
        // All targets are block aligned, within the page, ahead of the trigger.
        for r in &reqs {
            assert_eq!(r.addr % 64, 0);
        }
    }

    #[test]
    fn lookahead_goes_deep_on_strong_pattern() {
        let mut spp = Spp::default();
        // Long training within repeated pages.
        for p in 0..16u64 {
            drive_stream(&mut spp, 0x40_0000 + p * 4096, 64);
        }
        assert!(
            spp.stats.max_depth_seen >= 3,
            "confident unit stride should look ahead, max depth {}",
            spp.stats.max_depth_seen
        );
    }

    #[test]
    fn unthrottled_emits_superset_of_throttled() {
        // Drive both modes in a *low-accuracy* regime (α at its floor), where
        // SPP's T_p throttle bites early but the unthrottled stream keeps
        // speculating down to the confidence floor — the Sec 4.1 contrast.
        let run = |floor_mode: bool| {
            let mut spp = Spp::default();
            for a in 0..500u64 {
                Prefetcher::on_prefetch_fill(&mut spp, a * 64, FillLevel::L2);
            }
            assert_eq!(spp.alpha_percent(), 25);
            let mut n = 0u64;
            for p in 0..8u64 {
                for i in 0..64u64 {
                    let c = ctx(0x400, 0x80_0000 + p * 4096 + i * 64);
                    if floor_mode {
                        let mut out = Vec::new();
                        LookaheadSource::candidates(&mut spp, &c, &mut out);
                        n += out.len() as u64;
                    } else {
                        let mut out = Vec::new();
                        Prefetcher::on_demand_access(&mut spp, &c, &mut out);
                        n += out.len() as u64;
                    }
                }
            }
            n
        };
        let throttled = run(false);
        let unthrottled = run(true);
        assert!(
            unthrottled > throttled,
            "unthrottled SPP must speculate deeper: {unthrottled} vs {throttled}"
        );
    }

    #[test]
    fn candidates_carry_increasing_depth() {
        let mut spp = Spp::default();
        for p in 0..8u64 {
            drive_stream(&mut spp, 0xA0_0000 + p * 4096, 64);
        }
        // Warm the new page, then inspect one trigger's candidate stream.
        let mut scratch = Vec::new();
        LookaheadSource::candidates(&mut spp, &ctx(0x400, 0xB0_0000), &mut scratch);
        LookaheadSource::candidates(&mut spp, &ctx(0x400, 0xB0_0000 + 64), &mut scratch);
        let mut out = Vec::new();
        LookaheadSource::candidates(&mut spp, &ctx(0x400, 0xB0_0000 + 128), &mut out);
        assert!(out.len() >= 2, "expected a lookahead chain, got {}", out.len());
        assert!(out.windows(2).all(|w| w[0].meta.depth <= w[1].meta.depth));
    }

    #[test]
    fn confidence_decays_with_depth() {
        let mut spp = Spp::default();
        for p in 0..8u64 {
            drive_stream(&mut spp, 0xC0_0000 + p * 4096, 64);
        }
        let mut out = Vec::new();
        LookaheadSource::candidates(&mut spp, &ctx(0x400, 0xD0_0000 + 64), &mut out);
        LookaheadSource::candidates(&mut spp, &ctx(0x400, 0xD0_0000 + 128), &mut out);
        for w in out.windows(2) {
            if w[1].meta.depth > w[0].meta.depth {
                assert!(
                    w[1].meta.confidence <= w[0].meta.confidence,
                    "deeper candidates cannot gain confidence"
                );
            }
        }
    }

    #[test]
    fn alpha_tracks_usefulness() {
        let mut spp = Spp::default();
        assert_eq!(spp.alpha_percent(), 100, "cold predictor starts optimistic");
        // Many fills, no usefulness: alpha collapses to its floor.
        for a in 0..500u64 {
            Prefetcher::on_prefetch_fill(&mut spp, a * 64, FillLevel::L2);
        }
        assert_eq!(spp.alpha_percent(), 25);
        // Usefulness recovers it.
        for _ in 0..2000 {
            Prefetcher::on_useful_prefetch(&mut spp, 0);
        }
        assert!(spp.alpha_percent() >= 90, "alpha {}", spp.alpha_percent());
    }

    #[test]
    fn fill_level_follows_tf() {
        let spp = Spp::default();
        assert_eq!(spp.fill_for(95), FillLevel::L2);
        assert_eq!(spp.fill_for(89), FillLevel::Llc);
        assert_eq!(spp.fill_for(90), FillLevel::L2);
    }

    #[test]
    fn no_prefetch_outside_page() {
        let mut spp = Spp::default();
        for p in 0..8u64 {
            drive_stream(&mut spp, 0x20_0000 + p * 4096, 64);
        }
        // Trigger near the page end; candidates must not cross it.
        let mut out = Vec::new();
        LookaheadSource::candidates(&mut spp, &ctx(0x400, 0x70_0000 + 62 * 64), &mut out);
        LookaheadSource::candidates(&mut spp, &ctx(0x400, 0x70_0000 + 63 * 64), &mut out);
        for c in &out {
            assert_eq!(c.addr >> 12, 0x70_0000 >> 12, "crossed page: {:#x}", c.addr);
        }
    }

    #[test]
    fn deterministic() {
        let run = || {
            let mut spp = Spp::default();
            let mut all = Vec::new();
            for p in 0..4u64 {
                all.extend(drive_stream(&mut spp, 0x30_0000 + p * 8192, 48));
            }
            all
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn negative_stride_learned() {
        let mut spp = Spp::default();
        let mut reqs = Vec::new();
        for p in 0..8u64 {
            let base = 0x90_0000 + p * 4096;
            for i in (0..64u64).rev() {
                spp.on_demand_access(&ctx(0x500, base + i * 64), &mut reqs);
            }
        }
        assert!(!reqs.is_empty(), "descending stride should be prefetched");
    }

    /// The Pattern Table entry as it was before entries went inline: two
    /// heap `Vec`s and `u32` counters, the walk dividing per delta. The
    /// oracle the inline entry and its ratio table are held to.
    #[derive(Debug, Default)]
    struct VecEntry {
        c_sig: u32,
        deltas: Vec<i16>,
        c_delta: Vec<u32>,
    }

    impl VecEntry {
        fn train(&mut self, delta: i16, max_ways: usize, c_sig_max: u32) {
            self.c_sig += 1;
            if let Some(i) = self.deltas.iter().position(|&d| d == delta) {
                self.c_delta[i] += 1;
            } else if self.deltas.len() < max_ways {
                self.deltas.push(delta);
                self.c_delta.push(1);
            } else {
                let (victim, _) =
                    self.c_delta.iter().enumerate().min_by_key(|(_, &c)| c).expect("non-empty");
                self.deltas[victim] = delta;
                self.c_delta[victim] = 1;
            }
            if self.c_sig >= c_sig_max {
                self.c_sig >>= 1;
                for c in &mut self.c_delta {
                    *c >>= 1;
                }
                let mut i = 0;
                while i < self.deltas.len() {
                    if self.c_delta[i] == 0 {
                        self.deltas.swap_remove(i);
                        self.c_delta.swap_remove(i);
                    } else {
                        i += 1;
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::Config::with_cases(256))]
        /// For any way count and delta stream, the inline entry holds the
        /// same counters and ways in the same order as the `Vec` model,
        /// and the walk's confidence for every way matches the model's
        /// division: saturation halving, first-minimum eviction and
        /// dead-way removal all included.
        #[test]
        fn inline_entry_matches_the_vec_model(
            ways in 1usize..=MAX_PATTERN_WAYS,
            stream in proptest::collection::vec((-12i16..=12, 1u32..=100, 25u32..=100), 1..400),
        ) {
            let (mut inline, mut model) = (PatternEntry::default(), VecEntry::default());
            for (delta, path_conf, alpha) in stream {
                inline.train(delta, ways);
                model.train(delta, ways, u32::from(C_SIG_MAX));
                proptest::prop_assert_eq!(u32::from(inline.c_sig), model.c_sig);
                let got: Vec<(i16, u32)> =
                    inline.ways().map(|(d, c)| (d, u32::from(c))).collect();
                let want: Vec<(i16, u32)> =
                    model.deltas.iter().copied().zip(model.c_delta.iter().copied()).collect();
                proptest::prop_assert_eq!(&got, &want);
                let ratio = &RATIO[usize::from(inline.c_sig)];
                for ((_, c_d), &model_c_d) in inline.ways().zip(&model.c_delta) {
                    proptest::prop_assert_eq!(
                        path_conf * u32::from(ratio[usize::from(c_d)]) * alpha / 10_000,
                        path_conf * (model_c_d * 100 / model.c_sig) * alpha / 10_000
                    );
                }
            }
        }
    }

    #[test]
    fn ratio_table_is_the_division() {
        for c_sig in 1..=C_SIG_MAX {
            for c_d in 0..=C_SIG_MAX {
                let want = u32::from(c_d) * 100 / u32::from(c_sig);
                assert_eq!(u32::from(RATIO[usize::from(c_sig)][usize::from(c_d)]), want);
            }
        }
    }

    #[test]
    fn pattern_entry_counter_halving_preserves_winner() {
        let mut e = PatternEntry::default();
        for _ in 0..14 {
            e.train(2, 4);
        }
        e.train(5, 4);
        e.train(2, 4); // triggers halving at c_sig = 16
        let (_, c2) = e.ways().find(|&(d, _)| d == 2).unwrap();
        assert!(c2 >= 1);
        assert!(e.c_sig < 16);
    }
}
