//! Per-tenant filter state.
//!
//! A tenant is one isolated PPF instance: its own weight arena, metadata
//! tables, and checkpoint generation. Tenants never share mutable state —
//! fault isolation falls out of ownership: a panic while scoring one
//! tenant (caught at the shard layer) can only have poisoned that
//! tenant's filter, which is then discarded and rebuilt from its last
//! checkpoint.

use ppf::{Decision, PpfConfig, PpfFilter};

use crate::protocol::ScoreRequest;

/// One tenant: a filter plus serving bookkeeping.
#[derive(Debug)]
pub struct TenantState {
    /// Stable tenant name (`t<idx>-<workload>`), the checkpoint key.
    pub name: String,
    /// The tenant's private filter.
    pub filter: PpfFilter,
    /// Checkpoint generation last written (0 = never checkpointed).
    pub gen: u64,
    /// Score requests served since the last checkpoint barrier.
    pub since_checkpoint: u64,
    /// Total score requests ever seen (drives nth-request fault triggers).
    pub seen: u64,
}

impl TenantState {
    /// A fresh tenant with default PPF configuration.
    pub fn fresh(name: &str) -> Self {
        Self {
            name: name.to_string(),
            filter: PpfFilter::new(PpfConfig::default()),
            gen: 0,
            since_checkpoint: 0,
            seen: 0,
        }
    }

    /// A tenant warm-started from a checkpoint snapshot. Falls back to a
    /// fresh filter (fail-open) if the snapshot does not fit the filter's
    /// geometry, reporting the error.
    pub fn warm(name: &str, gen: u64, weights: &[u8]) -> Result<Self, String> {
        let mut t = Self::fresh(name);
        t.filter.warm_start(weights)?;
        t.gen = gen;
        Ok(t)
    }

    /// Serves one request: infers and records each candidate in order
    /// (paper Fig. 5 steps 1-2), then applies the piggybacked feedback.
    pub fn process(&mut self, req: &ScoreRequest) -> Vec<Decision> {
        self.seen += 1;
        self.since_checkpoint += 1;
        let mut decisions = Vec::with_capacity(req.candidates.len());
        for c in &req.candidates {
            let (d, sum, indices) = self.filter.infer_indexed(&c.inputs);
            self.filter.record_indexed(c.target, c.inputs, indices, sum, d);
            decisions.push(d);
        }
        for &addr in &req.demands {
            self.filter.train_on_demand(addr);
        }
        for &addr in &req.evictions {
            self.filter.train_on_eviction(addr, false);
        }
        decisions
    }

    /// Takes a checkpoint barrier: snapshots the weights, clears the
    /// metadata tables (see `PpfFilter::checkpoint_barrier` for why this
    /// makes warm-start recovery bit-exact), and bumps the generation.
    pub fn barrier(&mut self) -> (u64, Vec<u8>) {
        let weights = self.filter.checkpoint_barrier();
        self.gen += 1;
        self.since_checkpoint = 0;
        (self.gen, weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Candidate;
    use ppf::FeatureInputs;

    fn req(tag: u64, n: u64) -> ScoreRequest {
        let candidates = (0..n)
            .map(|i| {
                let addr = 0x1000_0000 + (tag * 97 + i) * 64;
                Candidate {
                    inputs: FeatureInputs {
                        trigger_addr: addr,
                        trigger_pc: 0x40_0000 + (tag % 13) * 4,
                        delta: 1 + (i % 3) as i16,
                        depth: (i % 4) as u8,
                        ..FeatureInputs::default()
                    },
                    target: addr + 64,
                }
            })
            .collect();
        ScoreRequest {
            tenant: "t000-x".into(),
            candidates,
            demands: vec![0x1000_0000 + tag * 97 * 64 + 64],
            evictions: vec![],
        }
    }

    #[test]
    fn processing_trains_and_counts() {
        let mut t = TenantState::fresh("t000-x");
        for i in 0..32 {
            let decisions = t.process(&req(i, 4));
            assert_eq!(decisions.len(), 4);
        }
        assert_eq!(t.seen, 32);
        assert!(t.filter.stats.inferences >= 128);
        assert!(t.filter.stats.positive_trains > 0, "demand feedback trains");
    }

    #[test]
    fn barrier_then_warm_resumes_identically() {
        let mut live = TenantState::fresh("t000-x");
        for i in 0..64 {
            live.process(&req(i, 4));
        }
        let (gen, weights) = live.barrier();
        let mut restored = TenantState::warm("t000-x", gen, &weights).unwrap();
        for i in 64..128 {
            assert_eq!(live.process(&req(i, 4)), restored.process(&req(i, 4)));
        }
        assert_eq!(live.filter.weights_digest(), restored.filter.weights_digest());
    }

    #[test]
    fn warm_start_rejects_wrong_geometry() {
        assert!(TenantState::warm("t", 1, &[0u8; 3]).is_err());
    }
}
