//! Composable access-pattern primitives.
//!
//! Each primitive implements [`AccessPattern`] and emits an endless stream of
//! [`TraceRecord`]s. Workload models ([`crate::workload`]) are built by
//! combining primitives with [`Interleave`] and [`PhaseAlternate`].
//!
//! The primitives cover the structures the prefetching literature cares
//! about:
//!
//! * [`SequentialStream`] / [`StridedStream`] — what next-line/stride/BOP
//!   prefetchers excel at,
//! * [`Stencil3d`] — multi-stream scientific access (bwaves/fotonik3d class),
//! * [`PointerChase`] — dependent, latency-bound traversal (mcf class),
//! * [`HotRegionRandom`] / [`GupsRandom`] — low-locality randoms,
//! * [`RegionScan`] — SMS-style repeated spatial footprints with varying
//!   page-local deltas (xalancbmk class),
//! * [`PhaseAlternate`], [`Interleave`] — program phases and loop nests.

use crate::prng::SplitMix64;
use crate::record::{AccessKind, TraceRecord};
use std::sync::{Arc, Mutex, PoisonError};

/// Cache block size assumed by the pattern library (matches the simulator).
pub const BLOCK_SIZE: u64 = 64;
/// Page size assumed by the pattern library (matches the simulator).
pub const PAGE_SIZE: u64 = 4096;

/// An endless, deterministic source of trace records.
///
/// Implementors must be deterministic: two instances constructed with the
/// same parameters and seed must produce identical streams.
pub trait AccessPattern {
    /// Produces the next record of the stream.
    fn next_record(&mut self) -> TraceRecord;
}

impl<P: AccessPattern + ?Sized> AccessPattern for Box<P> {
    fn next_record(&mut self) -> TraceRecord {
        (**self).next_record()
    }
}

/// Sequentially walks a region one cache block at a time, wrapping around.
///
/// ```
/// use ppf_trace::{AccessPattern, SequentialStream};
/// let mut s = SequentialStream::new(0x10_0000, 64, 0x400100, 4);
/// let a = s.next_record().addr;
/// let b = s.next_record().addr;
/// assert_eq!(b - a, 64);
/// ```
#[derive(Debug, Clone)]
pub struct SequentialStream {
    base: u64,
    len_blocks: u64,
    pos: u64,
    pc: u64,
    work: u8,
    store_every: u64,
    count: u64,
}

impl SequentialStream {
    /// Creates a stream over `len_blocks` blocks starting at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `len_blocks == 0`.
    pub fn new(base: u64, len_blocks: u64, pc: u64, work: u8) -> Self {
        assert!(len_blocks > 0, "stream must cover at least one block");
        Self { base, len_blocks, pos: 0, pc, work, store_every: 0, count: 0 }
    }

    /// Emits a store (instead of a load) every `n` accesses. `0` disables.
    pub fn with_stores_every(mut self, n: u64) -> Self {
        self.store_every = n;
        self
    }
}

impl AccessPattern for SequentialStream {
    fn next_record(&mut self) -> TraceRecord {
        let addr = self.base + (self.pos % self.len_blocks) * BLOCK_SIZE;
        self.pos += 1;
        self.count += 1;
        let kind = if self.store_every > 0 && self.count.is_multiple_of(self.store_every) {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        TraceRecord { pc: self.pc, addr, kind, work: self.work, dependent: false }
    }
}

/// Walks a region with a constant stride (in bytes), wrapping around.
#[derive(Debug, Clone)]
pub struct StridedStream {
    base: u64,
    region_bytes: u64,
    stride: u64,
    offset: u64,
    pc: u64,
    work: u8,
}

impl StridedStream {
    /// Creates a strided stream.
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0` or `region_bytes < stride`.
    pub fn new(base: u64, region_bytes: u64, stride: u64, pc: u64, work: u8) -> Self {
        assert!(stride > 0, "stride must be positive");
        assert!(region_bytes >= stride, "region smaller than stride");
        Self { base, region_bytes, stride, offset: 0, pc, work }
    }
}

impl AccessPattern for StridedStream {
    fn next_record(&mut self) -> TraceRecord {
        let addr = self.base + self.offset;
        self.offset = (self.offset + self.stride) % self.region_bytes;
        TraceRecord::load(self.pc, addr, self.work)
    }
}

/// Seven-point 3-D stencil sweep: for each grid point, touches the point and
/// its six neighbours across a `nx × ny × nz` grid of 8-byte cells.
///
/// Produces several simultaneous strided streams (unit, `nx`, `nx*ny`), the
/// signature pattern of bwaves/fotonik3d-style HPC codes.
#[derive(Debug, Clone)]
pub struct Stencil3d {
    base: u64,
    nx: u64,
    ny: u64,
    nz: u64,
    cell: u64,
    idx: u64,
    neighbour: usize,
    pc: u64,
    work: u8,
}

impl Stencil3d {
    /// Creates a stencil over a grid of `nx*ny*nz` cells of `cell` bytes.
    ///
    /// # Panics
    ///
    /// Panics if any dimension or the cell size is zero.
    pub fn new(base: u64, nx: u64, ny: u64, nz: u64, cell: u64, pc: u64, work: u8) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0 && cell > 0, "degenerate stencil");
        Self { base, nx, ny, nz, cell, idx: 0, neighbour: 0, pc, work }
    }

    fn total(&self) -> u64 {
        self.nx * self.ny * self.nz
    }
}

impl AccessPattern for Stencil3d {
    fn next_record(&mut self) -> TraceRecord {
        // Offsets of the 7-point stencil in linearized index space.
        let deltas: [i64; 7] = [
            0,
            1,
            -1,
            self.nx as i64,
            -(self.nx as i64),
            (self.nx * self.ny) as i64,
            -((self.nx * self.ny) as i64),
        ];
        let total = self.total() as i64;
        let center = self.idx as i64;
        let raw = center + deltas[self.neighbour];
        let linear = raw.rem_euclid(total) as u64;
        // Each neighbour access comes from a distinct load instruction.
        let pc = self.pc + self.neighbour as u64 * 4;
        self.neighbour += 1;
        if self.neighbour == deltas.len() {
            self.neighbour = 0;
            self.idx = (self.idx + 1) % self.total();
        }
        TraceRecord::load(pc, self.base + linear * self.cell, self.work)
    }
}

/// Pointer chase over a random cyclic permutation of `nodes` nodes.
///
/// Every access depends on the previous one (the loaded value *is* the next
/// address), so the stream is marked [`TraceRecord::dependent`] and the core
/// model serializes it — the latency-bound behaviour of `mcf`-like codes.
///
/// The cycle is the shuffled node order itself: the chase starts at node 0
/// and walks that order forward, wrapping, so each record is a sequential
/// read of the order rather than a random read of a successor table. The
/// order is shared: [`PointerChase::new`] keeps the last `(nodes, seed)` it
/// shuffled in a one-entry cache, because a sweep builds each workload once
/// per scheme (five cells in a row for fig09) and every such build would
/// otherwise shuffle the same cycle again. The cache keeps at most one order
/// alive after its last chase is dropped (2 MiB for mcf's 2^19 nodes).
#[derive(Debug, Clone)]
pub struct PointerChase {
    base: u64,
    order: Arc<[u32]>,
    pos: usize,
    node_bytes: u64,
    pc: u64,
    work: u8,
}

impl PointerChase {
    /// Builds a chase over `nodes` nodes of `node_bytes` bytes each, linked in
    /// one random cycle drawn from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes < 2` or `node_bytes == 0`.
    pub fn new(base: u64, nodes: u32, node_bytes: u64, pc: u64, work: u8, seed: u64) -> Self {
        assert!(nodes >= 2, "need at least two nodes to chase");
        assert!(node_bytes > 0, "node size must be positive");
        let (order, pos) = LAST_CYCLE.get(nodes, seed);
        Self { base, order, pos, node_bytes, pc, work }
    }
}

impl AccessPattern for PointerChase {
    fn next_record(&mut self) -> TraceRecord {
        let addr = self.base + u64::from(self.order[self.pos]) * self.node_bytes;
        self.pos += 1;
        if self.pos == self.order.len() {
            self.pos = 0;
        }
        TraceRecord::load(self.pc, addr, self.work).with_dependency()
    }
}

/// The cycle [`PointerChase::new`] shuffled last.
static LAST_CYCLE: CycleCache = CycleCache::new();

/// A one-entry cache of shuffled node orders, keyed by `(nodes, seed)`.
struct CycleCache(Mutex<Option<Cycle>>);

/// The node order of one shuffled cycle and the position of node 0 in it.
struct Cycle {
    nodes: u32,
    seed: u64,
    order: Arc<[u32]>,
    start: usize,
}

impl CycleCache {
    const fn new() -> Self {
        Self(Mutex::new(None))
    }

    /// The node order of the cycle over `nodes` nodes drawn from `seed`, and
    /// the position of node 0 in it. A key other than the last one drops the
    /// cached order before it shuffles anew, so the cache never holds two
    /// orders; the lock is held meanwhile, so threads that build one key
    /// together shuffle it once.
    fn get(&self, nodes: u32, seed: u64) -> (Arc<[u32]>, usize) {
        let mut last = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(c) = last.as_ref().filter(|c| (c.nodes, c.seed) == (nodes, seed)) {
            return (Arc::clone(&c.order), c.start);
        }
        *last = None;
        let mut order: Arc<[u32]> = (0..nodes).collect();
        SplitMix64::new(seed).shuffle(Arc::get_mut(&mut order).expect("a new order is unshared"));
        let start = order.iter().position(|&n| n == 0).expect("node 0 is in the cycle");
        *last = Some(Cycle { nodes, seed, order: Arc::clone(&order), start });
        (order, start)
    }
}

/// Uniform random accesses inside a bounded hot region.
///
/// With a small region this is cache-friendly but prefetch-hostile; with a
/// large one it approximates GUPS.
#[derive(Debug, Clone)]
pub struct HotRegionRandom {
    base: u64,
    blocks: u64,
    rng: SplitMix64,
    pc: u64,
    work: u8,
}

impl HotRegionRandom {
    /// Creates a random pattern over `blocks` cache blocks at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `blocks == 0`.
    pub fn new(base: u64, blocks: u64, pc: u64, work: u8, seed: u64) -> Self {
        assert!(blocks > 0, "region must contain blocks");
        Self { base, blocks, rng: SplitMix64::new(seed), pc, work }
    }
}

impl AccessPattern for HotRegionRandom {
    fn next_record(&mut self) -> TraceRecord {
        let block = self.rng.next_below(self.blocks);
        TraceRecord::load(self.pc, self.base + block * BLOCK_SIZE, self.work)
    }
}

/// Giant-footprint random updates (GUPS): load + store to random blocks over
/// a very large table. Defeats every prefetcher; useful as a control.
#[derive(Debug, Clone)]
pub struct GupsRandom {
    base: u64,
    blocks: u64,
    rng: SplitMix64,
    pc: u64,
    work: u8,
    pending_store: Option<u64>,
}

impl GupsRandom {
    /// Creates a GUPS pattern over `blocks` cache blocks.
    ///
    /// # Panics
    ///
    /// Panics if `blocks == 0`.
    pub fn new(base: u64, blocks: u64, pc: u64, work: u8, seed: u64) -> Self {
        assert!(blocks > 0, "table must contain blocks");
        Self { base, blocks, rng: SplitMix64::new(seed), pc, work, pending_store: None }
    }
}

impl AccessPattern for GupsRandom {
    fn next_record(&mut self) -> TraceRecord {
        if let Some(addr) = self.pending_store.take() {
            return TraceRecord::store(self.pc + 4, addr, 0);
        }
        let addr = self.base + self.rng.next_below(self.blocks) * BLOCK_SIZE;
        self.pending_store = Some(addr);
        TraceRecord::load(self.pc, addr, self.work)
    }
}

/// SMS-style spatial footprints: visits regions in a (noisy) forward order
/// and, inside each region, touches a fixed bit-pattern of blocks.
///
/// The per-region *footprint* repeats across regions, so a spatial prefetcher
/// (or a lookahead prefetcher with signatures) can learn it, but the deltas
/// within a page vary — the `xalancbmk` behaviour the paper highlights.
#[derive(Debug, Clone)]
pub struct RegionScan {
    base: u64,
    regions: u64,
    footprints: Vec<Vec<u8>>,
    region_idx: u64,
    step: usize,
    current_fp: usize,
    rng: SplitMix64,
    region_skip_chance: u64,
    pc: u64,
    work: u8,
}

impl RegionScan {
    /// Creates a scan over `regions` pages starting at `base`.
    ///
    /// `footprints` is a set of block-offset lists (each offset `< 64`); a
    /// footprint is picked pseudo-randomly per region. `region_skip_chance`
    /// (percent) occasionally jumps over a region to add irregularity.
    ///
    /// # Panics
    ///
    /// Panics if `regions == 0`, `footprints` is empty, any footprint is
    /// empty, or any offset is out of page range.
    pub fn new(
        base: u64,
        regions: u64,
        footprints: Vec<Vec<u8>>,
        region_skip_chance: u64,
        pc: u64,
        work: u8,
        seed: u64,
    ) -> Self {
        assert!(regions > 0, "need regions to scan");
        assert!(!footprints.is_empty(), "need at least one footprint");
        let blocks_per_page = (PAGE_SIZE / BLOCK_SIZE) as u8;
        for fp in &footprints {
            assert!(!fp.is_empty(), "footprint must touch at least one block");
            assert!(fp.iter().all(|&o| o < blocks_per_page), "offset out of page");
        }
        Self {
            base,
            regions,
            footprints,
            region_idx: 0,
            step: 0,
            current_fp: 0,
            rng: SplitMix64::new(seed),
            region_skip_chance,
            pc,
            work,
        }
    }
}

impl AccessPattern for RegionScan {
    fn next_record(&mut self) -> TraceRecord {
        let fp = &self.footprints[self.current_fp];
        let offset = fp[self.step];
        let addr =
            self.base + (self.region_idx % self.regions) * PAGE_SIZE + u64::from(offset) * BLOCK_SIZE;
        // Distinct PC per footprint slot: models distinct field accesses.
        let pc = self.pc + self.step as u64 * 4;
        self.step += 1;
        if self.step == fp.len() {
            self.step = 0;
            let advance = if self.rng.chance(self.region_skip_chance, 100) { 2 } else { 1 };
            self.region_idx = self.region_idx.wrapping_add(advance);
            self.current_fp = self.rng.next_below(self.footprints.len() as u64) as usize;
        }
        TraceRecord::load(pc, addr, self.work)
    }
}

/// Interleaves several patterns with integer weights (round-robin by weight).
pub struct Interleave {
    parts: Vec<(Box<dyn AccessPattern>, u32)>,
    cursor: usize,
    remaining: u32,
}

impl std::fmt::Debug for Interleave {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Interleave").field("parts", &self.parts.len()).finish()
    }
}

impl Interleave {
    /// Creates an interleaver from `(pattern, weight)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or any weight is zero.
    pub fn new(parts: Vec<(Box<dyn AccessPattern>, u32)>) -> Self {
        assert!(!parts.is_empty(), "need at least one pattern");
        assert!(parts.iter().all(|(_, w)| *w > 0), "weights must be positive");
        let first = parts[0].1;
        Self { parts, cursor: 0, remaining: first }
    }
}

impl AccessPattern for Interleave {
    fn next_record(&mut self) -> TraceRecord {
        if self.remaining == 0 {
            self.cursor = (self.cursor + 1) % self.parts.len();
            self.remaining = self.parts[self.cursor].1;
        }
        self.remaining -= 1;
        self.parts[self.cursor].0.next_record()
    }
}

/// Alternates between patterns in fixed-length phases, modelling program
/// phase behaviour (and exercising PPF's adaptation speed).
pub struct PhaseAlternate {
    phases: Vec<Box<dyn AccessPattern>>,
    phase_len: u64,
    emitted: u64,
    current: usize,
}

impl std::fmt::Debug for PhaseAlternate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhaseAlternate")
            .field("phases", &self.phases.len())
            .field("phase_len", &self.phase_len)
            .finish()
    }
}

impl PhaseAlternate {
    /// Cycles through `phases`, emitting `phase_len` records from each.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty or `phase_len == 0`.
    pub fn new(phases: Vec<Box<dyn AccessPattern>>, phase_len: u64) -> Self {
        assert!(!phases.is_empty(), "need at least one phase");
        assert!(phase_len > 0, "phase length must be positive");
        Self { phases, phase_len, emitted: 0, current: 0 }
    }
}

impl AccessPattern for PhaseAlternate {
    fn next_record(&mut self) -> TraceRecord {
        if self.emitted == self.phase_len {
            self.emitted = 0;
            self.current = (self.current + 1) % self.phases.len();
        }
        self.emitted += 1;
        self.phases[self.current].next_record()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn sequential_is_block_strided() {
        let mut s = SequentialStream::new(0x1000, 8, 0x400000, 2);
        let addrs: Vec<u64> = (0..10).map(|_| s.next_record().addr).collect();
        assert_eq!(addrs[1] - addrs[0], BLOCK_SIZE);
        // Wraps after 8 blocks.
        assert_eq!(addrs[8], addrs[0]);
    }

    #[test]
    fn sequential_store_mix() {
        let mut s = SequentialStream::new(0, 1024, 0, 0).with_stores_every(4);
        let stores = (0..100).filter(|_| s.next_record().kind == AccessKind::Store).count();
        assert_eq!(stores, 25);
    }

    #[test]
    fn strided_wraps_in_region() {
        let mut s = StridedStream::new(0x2000, 4096, 256, 0x400010, 1);
        for _ in 0..100 {
            let a = s.next_record().addr;
            assert!((0x2000..0x2000 + 4096).contains(&a));
            assert_eq!((a - 0x2000) % 256, 0);
        }
    }

    #[test]
    fn stencil_touches_multiple_streams() {
        let mut st = Stencil3d::new(0, 64, 64, 4, 8, 0x400100, 1);
        let mut deltas = HashSet::new();
        let mut prev = st.next_record().addr as i64;
        for _ in 0..200 {
            let a = st.next_record().addr as i64;
            deltas.insert(a - prev);
            prev = a;
        }
        // A 7-point stencil produces several distinct inter-access deltas.
        assert!(deltas.len() >= 4, "only {} distinct deltas", deltas.len());
    }

    #[test]
    fn pointer_chase_covers_all_nodes_once_per_cycle() {
        let nodes = 64;
        let mut p = PointerChase::new(0, nodes, 64, 0x400200, 0, 5);
        let mut seen = HashSet::new();
        for _ in 0..nodes {
            let r = p.next_record();
            assert!(r.dependent);
            assert!(seen.insert(r.addr), "revisited {:#x} inside one cycle", r.addr);
        }
        // Next access restarts the same cycle.
        let again = p.next_record().addr;
        assert!(seen.contains(&again));
    }

    #[test]
    fn pointer_chase_deterministic() {
        let mut a = PointerChase::new(0, 128, 64, 0, 0, 9);
        let mut b = PointerChase::new(0, 128, 64, 0, 0, 9);
        for _ in 0..256 {
            assert_eq!(a.next_record(), b.next_record());
        }
    }

    /// The successor table the chase once built and walked: `next[n]` is
    /// the node after `n` in the shuffled cycle. Kept as the reference for
    /// the in-order walk.
    fn next_array(nodes: u32, seed: u64) -> Vec<u32> {
        let mut order: Vec<u32> = (0..nodes).collect();
        SplitMix64::new(seed).shuffle(&mut order);
        let mut next = vec![0u32; nodes as usize];
        for i in 0..nodes as usize {
            next[order[i] as usize] = order[(i + 1) % nodes as usize];
        }
        next
    }

    proptest! {
        /// Walking the shuffled order from node 0's position yields exactly
        /// the records of walking the successor table from node 0.
        #[test]
        fn in_order_walk_matches_next_array_walk(nodes in 2u32..=5000, seed in any::<u64>()) {
            let (base, node_bytes, pc, work) = (0x4000_0000, 96, 0x400300, 17);
            let next = next_array(nodes, seed);
            let mut chase = PointerChase::new(base, nodes, node_bytes, pc, work, seed);
            let mut cur = 0u32;
            for _ in 0..3 * nodes {
                let r = chase.next_record();
                prop_assert_eq!(r.addr, base + u64::from(cur) * node_bytes);
                prop_assert_eq!(r.pc, pc);
                prop_assert_eq!(r.work, work);
                prop_assert!(r.dependent);
                cur = next[cur as usize];
            }
        }
    }

    /// A chase over the cycle `cache` returns for `(nodes, seed)`.
    fn chase_from(cache: &CycleCache, nodes: u32, seed: u64) -> PointerChase {
        let (order, pos) = cache.get(nodes, seed);
        PointerChase { base: 0, order, pos, node_bytes: 64, pc: 0x400200, work: 3 }
    }

    fn stream(mut p: PointerChase, n: usize) -> Vec<TraceRecord> {
        (0..n).map(|_| p.next_record()).collect()
    }

    #[test]
    fn same_key_builds_share_one_cycle() {
        let (nodes, seed) = (1000, 77);
        let len = 3 * nodes as usize;
        let cache = CycleCache::new();
        let a = chase_from(&cache, nodes, seed);
        let b = chase_from(&cache, nodes, seed);
        assert!(Arc::ptr_eq(&a.order, &b.order), "one key, one table");
        let reference = stream(PointerChase::new(0, nodes, 64, 0x400200, 3, seed), len);
        assert_eq!(stream(a.clone(), len), reference);
        assert_eq!(stream(b, len), reference);

        // Another key evicts the first, which then shuffles anew.
        let other = chase_from(&cache, nodes, seed + 1);
        assert!(!Arc::ptr_eq(&a.order, &other.order));
        assert_ne!(stream(other, len), reference);
        let rebuilt = chase_from(&cache, nodes, seed);
        assert!(!Arc::ptr_eq(&a.order, &rebuilt.order), "the evicted key rebuilds");
        assert_eq!(stream(rebuilt, len), reference);

        // Threads building one key together get one table and one stream.
        let cache = CycleCache::new();
        let built: Vec<PointerChase> = std::thread::scope(|s| {
            let handles: Vec<_> =
                (0..4).map(|_| s.spawn(|| chase_from(&cache, nodes, seed))).collect();
            handles.into_iter().map(|h| h.join().expect("builder thread")).collect()
        });
        let (shared, _) = cache.get(nodes, seed);
        for p in built {
            assert!(Arc::ptr_eq(&p.order, &shared), "one shuffle for all four threads");
            assert_eq!(stream(p, len), reference);
        }
    }

    #[test]
    fn hot_region_stays_in_region() {
        let mut h = HotRegionRandom::new(0x10_0000, 32, 0, 0, 3);
        for _ in 0..1000 {
            let a = h.next_record().addr;
            assert!((0x10_0000..0x10_0000 + 32 * BLOCK_SIZE).contains(&a));
        }
    }

    #[test]
    fn gups_alternates_load_store_same_block() {
        let mut g = GupsRandom::new(0, 1 << 20, 0x400300, 2, 11);
        for _ in 0..100 {
            let l = g.next_record();
            let s = g.next_record();
            assert_eq!(l.kind, AccessKind::Load);
            assert_eq!(s.kind, AccessKind::Store);
            assert_eq!(l.addr, s.addr);
        }
    }

    #[test]
    fn region_scan_respects_footprint() {
        let fp = vec![vec![0u8, 3, 7, 12]];
        let mut r = RegionScan::new(0, 100, fp, 0, 0x400400, 1, 1);
        for _ in 0..50 {
            let rec = r.next_record();
            let off = (rec.addr % PAGE_SIZE) / BLOCK_SIZE;
            assert!([0, 3, 7, 12].contains(&off));
        }
    }

    #[test]
    fn interleave_respects_weights() {
        let a = Box::new(SequentialStream::new(0, 1024, 0xA000, 0));
        let b = Box::new(SequentialStream::new(1 << 30, 1024, 0xB000, 0));
        let mut i = Interleave::new(vec![(a as _, 3), (b as _, 1)]);
        let from_a =
            (0..400).filter(|_| i.next_record().addr < 1 << 29).count();
        assert_eq!(from_a, 300);
    }

    #[test]
    fn phase_alternate_switches() {
        let a = Box::new(SequentialStream::new(0, 1024, 0xA000, 0));
        let b = Box::new(SequentialStream::new(1 << 30, 1024, 0xB000, 0));
        let mut p = PhaseAlternate::new(vec![a as _, b as _], 10);
        let first: Vec<u64> = (0..10).map(|_| p.next_record().addr).collect();
        let second: Vec<u64> = (0..10).map(|_| p.next_record().addr).collect();
        assert!(first.iter().all(|&x| x < 1 << 29));
        assert!(second.iter().all(|&x| x >= 1 << 29));
    }

    #[test]
    #[should_panic(expected = "weights must be positive")]
    fn interleave_rejects_zero_weight() {
        let a = Box::new(SequentialStream::new(0, 1, 0, 0));
        Interleave::new(vec![(a as _, 0)]);
    }
}
