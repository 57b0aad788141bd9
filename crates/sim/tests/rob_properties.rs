//! Property test of the ring-buffer ROB against a model of the
//! `VecDeque`-backed ROB it replaced: under any sequence of dispatches
//! (single and runs), completions, lookups and retirements, long enough to
//! wrap the ring many times, both return the same values and hold the same
//! entries.

use std::collections::VecDeque;

use ppf_sim::rob::{Rob, PENDING};
use proptest::collection::vec;
use proptest::prelude::*;

/// The `VecDeque` ROB, kept as the reference.
struct Model {
    entries: VecDeque<u64>,
    head_seq: u64,
    capacity: usize,
}

impl Model {
    fn new(capacity: usize) -> Self {
        Self {
            entries: VecDeque::new(),
            head_seq: 0,
            capacity,
        }
    }

    fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    fn push(&mut self, complete: u64) -> u64 {
        let seq = self.head_seq + self.entries.len() as u64;
        self.entries.push_back(complete);
        seq
    }

    fn complete(&mut self, seq: u64, cycle: u64) {
        if seq < self.head_seq {
            return;
        }
        if let Some(e) = self.entries.get_mut((seq - self.head_seq) as usize) {
            *e = cycle;
        }
    }

    fn completion_of(&self, seq: u64) -> Option<u64> {
        if seq < self.head_seq {
            return None;
        }
        self.entries.get((seq - self.head_seq) as usize).copied()
    }

    fn retire(&mut self, cycle: u64, width: u32) -> u32 {
        let mut n = 0;
        while n < width {
            match self.entries.front() {
                Some(&c) if c <= cycle => {
                    self.entries.pop_front();
                    self.head_seq += 1;
                    n += 1;
                }
                _ => break,
            }
        }
        n
    }
}

/// One step. Completion cycles are offsets from a clock that only the
/// retire steps advance, so every finite completion eventually retires.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Dispatch one entry completing `delay` cycles from now, or pending.
    Push {
        delay: u64,
    },
    /// Dispatch up to `n` entries (clamped to the free ones).
    PushRun {
        delay: u64,
        n: usize,
    },
    /// Complete a sequence number near the head (see [`seq_at`]) at
    /// `delay` cycles from now.
    Complete {
        offset: u64,
        back: u64,
        delay: u64,
    },
    CompletionOf {
        offset: u64,
        back: u64,
    },
    /// Advance the clock by `step`, then retire up to `width`.
    Retire {
        step: u64,
        width: u32,
    },
}

/// A completion cycle `delay` after `clock`; the largest delays mean
/// "pending on memory".
fn completion(clock: u64, delay: u64) -> u64 {
    if delay >= 30 {
        PENDING
    } else {
        clock + delay
    }
}

/// A sequence number `offset` after the head's, minus `back`: mostly among
/// the oldest few entries, where a pending head blocks retirement, and
/// otherwise anywhere up to 4 past the youngest, so retired, in-flight and
/// not-yet-dispatched numbers all occur.
fn seq_at(model: &Model, offset: u64, back: u64) -> u64 {
    let offset = if offset >= 24 {
        offset % (model.entries.len() as u64 + 4)
    } else {
        offset % 3
    };
    (model.head_seq + offset).saturating_sub(back)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..5, 0u64..32, 0u64..48, 0u64..4).prop_map(|(kind, a, b, c)| match kind {
        0 => Op::Push { delay: a },
        1 => Op::PushRun {
            delay: a,
            n: (b % 12) as usize,
        },
        2 => Op::Complete {
            offset: b,
            back: c,
            delay: a % 8,
        },
        3 => Op::CompletionOf { offset: b, back: c },
        _ => Op::Retire {
            step: a % 8,
            width: (b % 8 + 1) as u32,
        },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ring_matches_the_vecdeque_rob(capacity in 1usize..24, ops in vec(op_strategy(), 600..1500)) {
        let mut rob = Rob::new(capacity);
        let mut model = Model::new(capacity);
        let mut dispatched = 0u64;
        let mut clock = 0u64;
        for op in ops {
            match op {
                Op::Push { delay } => {
                    let c = completion(clock, delay);
                    if model.has_space() {
                        prop_assert_eq!(rob.push(c), model.push(c));
                        dispatched += 1;
                    }
                }
                Op::PushRun { delay, n } => {
                    let c = completion(clock, delay);
                    let n = n.min(capacity - model.entries.len());
                    rob.push_run(c, n);
                    for _ in 0..n {
                        model.push(c);
                    }
                    dispatched += n as u64;
                }
                Op::Complete { offset, back, delay } => {
                    let seq = seq_at(&model, offset, back);
                    rob.complete(seq, clock + delay);
                    model.complete(seq, clock + delay);
                }
                Op::CompletionOf { offset, back } => {
                    let seq = seq_at(&model, offset, back);
                    let want = model.completion_of(seq);
                    prop_assert_eq!(rob.completion_of(seq), want, "seq {}", seq);
                }
                Op::Retire { step, width } => {
                    clock += step;
                    prop_assert_eq!(rob.retire(clock, width), model.retire(clock, width));
                }
            }
            prop_assert_eq!(rob.len(), model.entries.len());
            prop_assert_eq!(rob.is_empty(), model.entries.is_empty());
            prop_assert_eq!(rob.has_space(), model.has_space());
            prop_assert_eq!(rob.free(), capacity - model.entries.len());
            prop_assert_eq!(rob.head_completion(), model.entries.front().copied());
            for (k, &c) in model.entries.iter().enumerate() {
                prop_assert_eq!(rob.completion_of(model.head_seq + k as u64), Some(c));
            }
        }
        // Long enough that the ring wrapped several times.
        let slots = capacity.next_power_of_two() as u64;
        prop_assert!(dispatched > 2 * slots, "only {} dispatched", dispatched);
    }
}
