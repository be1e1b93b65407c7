//! The scheduling-policy abstraction and its input snapshot.
//!
//! A policy sees a [`ScheduleView`] — the global information the paper's
//! driver worker collects before each schedule (§3.1: "gLLM collects the
//! number of tokens across all awaiting prefill requests" and "the KV cache
//! free rate") — and returns a [`BatchPlan`]. Policies are pure and
//! deterministic; all mutation happens in [`crate::pool::RequestPool`].
//!
//! Token and block quantities at this interface carry the `gllm-units`
//! newtypes; the *only* sanctioned token↔block conversions are
//! `Tokens::to_blocks` / `Tokens::full_blocks` / `Blocks::to_tokens`.

use gllm_units::{Blocks, Tokens};

use crate::plan::{BatchPlan, DecodeSlot, PrefillChunk, SeqSlot};

/// A waiting (prefill-schedulable) sequence, FCFS order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitingSeq {
    /// Sequence id.
    pub seq: u64,
    /// The sequence's pool slot (copied into the chunks planned for it).
    pub slot: SeqSlot,
    /// Prompt tokens still to prefill.
    pub remaining_prefill: Tokens,
    /// KV context already committed (previous chunks).
    pub context_before: Tokens,
}

/// A decodable (running, not in-flight) sequence, FCFS order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodableSeq {
    /// Sequence id.
    pub seq: u64,
    /// The sequence's pool slot (copied into its decode slot).
    pub slot: SeqSlot,
    /// KV context committed before the next step.
    pub context_before: Tokens,
}

/// Immutable snapshot handed to a policy before each micro-batch.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleView {
    /// Prefill-schedulable sequences in arrival order.
    pub waiting: Vec<WaitingSeq>,
    /// Decode-schedulable sequences in arrival order.
    pub decodable: Vec<DecodableSeq>,
    /// Total sequences in the decode phase, including those inside
    /// in-flight micro-batches — the paper's `#RD` (Eq. 4 counts *all*
    /// running decode tokens, distributed over `#PP_depth` batches).
    pub total_decode_seqs: usize,
    /// The paper's `KV_free ∈ [0, 1]`.
    pub kv_free_rate: f64,
    /// Free KV slots (tokens) available for new allocations right now.
    /// Always a whole number of free blocks (`free_blocks × block_size`).
    pub kv_free_tokens: Tokens,
    /// KV block size in tokens — allocation is block-granular, so a chunk
    /// or decode step may consume a whole block for its first token.
    pub block_size: Tokens,
    /// Sequences currently inside in-flight micro-batches (any phase).
    pub in_flight_seqs: usize,
    /// Pipeline depth (`#PP_depth`), 1 for tensor parallelism.
    pub pipeline_depth: usize,
    /// Engine cap on sequences per batch (vLLM's `--max-num-seqs`).
    pub max_seqs_per_batch: usize,
}

impl ScheduleView {
    /// The paper's `#WP`: total tokens awaiting prefill.
    pub fn waiting_tokens(&self) -> Tokens {
        self.waiting.iter().map(|w| w.remaining_prefill).sum()
    }
}

/// A scheduling policy: pure function from view to plan.
pub trait SchedulePolicy: Send + Sync {
    /// Compose the next micro-batch.
    fn plan(&self, view: &ScheduleView) -> BatchPlan;

    /// Short name for reports and bench rows.
    fn name(&self) -> &'static str;

    /// Budget caps this policy guarantees its plans respect, as
    /// `(prefill_tokens, decode_seqs)`. `None` when the policy has no
    /// closed-form budget; the invariant auditor then only checks that
    /// admission never grows the plan.
    fn budget_caps(&self, _view: &ScheduleView) -> Option<(Tokens, usize)> {
        None
    }
}

/// Blocks a sequence at `context` tokens must newly acquire to append
/// `tokens` more, given block-granular allocation (the sequence already
/// holds `ceil(context / block_size)` blocks).
pub fn blocks_to_append(context: Tokens, tokens: Tokens, block_size: Tokens) -> Blocks {
    (context + tokens).to_blocks(block_size) - context.to_blocks(block_size)
}

/// KV tokens (whole free blocks) left for prefill after conservatively
/// reserving the blocks this iteration's decode steps may claim: a decode
/// step allocates a fresh block exactly when its context is block-aligned.
/// Returns 0 when decode growth alone can exhaust free KV — the policy
/// must then propose no prefill and let preemption resolve the pressure.
pub fn prefill_kv_after_decode(
    kv_free_tokens: Tokens,
    decode: &[DecodeSlot],
    block_size: Tokens,
) -> Tokens {
    let mut blocks_left = kv_free_tokens.full_blocks(block_size);
    for d in decode {
        let need = blocks_to_append(d.context_before, Tokens(1), block_size);
        if need > blocks_left {
            return Tokens::ZERO;
        }
        blocks_left -= need;
    }
    blocks_left.to_tokens(block_size)
}

/// Shared helper: greedily carve prefill chunks FCFS from `waiting` until
/// `token_budget` tokens, `seq_budget` sequences or `kv_free_tokens` slots
/// are exhausted, marking the chunk that completes each prompt.
///
/// Every policy in the paper (Sarathi, vLLM, SGLang, gLLM) admits prefill
/// FCFS with chunking; they differ only in how `token_budget` is chosen.
// lint:allow(unit-confusion): seq_budget counts admitted sequences, not tokens
pub fn carve_prefill_chunks(
    waiting: &[WaitingSeq],
    token_budget: Tokens,
    seq_budget: usize,
    kv_free_tokens: Tokens,
) -> Vec<PrefillChunk> {
    carve_prefill_chunks_block_aware(waiting, token_budget, seq_budget, kv_free_tokens, Tokens(1))
}

/// Like [`carve_prefill_chunks`], but block-granular: `kv_free_tokens`
/// counts whole free blocks worth of tokens, and each chunk is charged the
/// blocks it newly acquires. A partially-filled last block gives its owner
/// `slack` tokens that cost nothing, so a sequence mid-prefill may still
/// take a small chunk even when no whole block is free.
// lint:allow(unit-confusion): seq_budget counts admitted sequences, not tokens
pub fn carve_prefill_chunks_block_aware(
    waiting: &[WaitingSeq],
    token_budget: Tokens,
    seq_budget: usize,
    kv_free_tokens: Tokens,
    block_size: Tokens,
) -> Vec<PrefillChunk> {
    let mut chunks = Vec::new();
    let mut budget = token_budget;
    let mut blocks_left = kv_free_tokens.full_blocks(block_size);
    for w in waiting.iter().take(seq_budget) {
        if budget.is_zero() {
            break;
        }
        let slack = w.context_before.to_blocks(block_size).to_tokens(block_size)
            - w.context_before;
        let appendable = slack + blocks_left.to_tokens(block_size);
        let take = w.remaining_prefill.min(budget).min(appendable);
        if take.is_zero() {
            // This sequence cannot grow, but a later one with slack in its
            // partial block still might.
            continue;
        }
        chunks.push(PrefillChunk {
            seq: w.seq,
            slot: w.slot,
            tokens: take,
            context_before: w.context_before,
            completes_prompt: take == w.remaining_prefill,
        });
        budget -= take;
        blocks_left -= blocks_to_append(w.context_before, take, block_size);
    }
    chunks
}

/// Like [`carve_prefill_chunks`], but budgets *estimated cost* rather than
/// raw token count: each token of a chunk at context `c` is weighted
/// `1 + c / quad_ref`, where `quad_ref` is the context length at which the
/// quadratic attention cost equals the linear projection cost.
///
/// This implements the paper's §6 future-work item ("incorporate the
/// context length of each sequence to enable more accurate estimation of
/// forward pass time"): with plain token budgeting, a 512-token chunk at
/// context 8 K costs far more wall-clock than a 512-token chunk at context
/// 0, re-introducing inter-batch imbalance on long-context workloads.
// lint:allow(unit-confusion): seq_budget counts admitted sequences, not tokens
pub fn carve_prefill_chunks_weighted(
    waiting: &[WaitingSeq],
    cost_budget: f64,
    seq_budget: usize,
    kv_free_tokens: Tokens,
    block_size: Tokens,
    quad_ref: f64,
) -> Vec<PrefillChunk> {
    assert!(quad_ref > 0.0);
    let mut chunks = Vec::new();
    let mut budget = cost_budget;
    let mut blocks_left = kv_free_tokens.full_blocks(block_size);
    for w in waiting.iter().take(seq_budget) {
        if budget <= 0.0 {
            break;
        }
        // Cost of n tokens starting at context c:
        //   n + (c·n + n²/2) / quad_ref
        // Solve for the largest n within budget (quadratic formula), then
        // clamp by the remaining prompt and the block-granular KV space.
        let c = w.context_before.get() as f64;
        let a = 0.5 / quad_ref;
        let b = 1.0 + c / quad_ref;
        let n_max = ((-b + (b * b + 4.0 * a * budget).sqrt()) / (2.0 * a)).floor();
        let slack = w.context_before.to_blocks(block_size).to_tokens(block_size)
            - w.context_before;
        let take = Tokens(n_max.max(0.0) as usize)
            .min(w.remaining_prefill)
            .min(slack + blocks_left.to_tokens(block_size));
        if take.is_zero() {
            continue;
        }
        let n = take.get() as f64;
        let cost = n + (c * n + n * n / 2.0) / quad_ref;
        chunks.push(PrefillChunk {
            seq: w.seq,
            slot: w.slot,
            tokens: take,
            context_before: w.context_before,
            completes_prompt: take == w.remaining_prefill,
        });
        budget -= cost;
        blocks_left -= blocks_to_append(w.context_before, take, block_size);
    }
    chunks
}

/// Shared helper: schedule the first `n` decodable sequences.
pub fn take_decodes(decodable: &[DecodableSeq], n: usize) -> Vec<DecodeSlot> {
    decodable
        .iter()
        .take(n)
        .map(|d| DecodeSlot { seq: d.seq, slot: d.slot, context_before: d.context_before })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const NO_KV_LIMIT: Tokens = Tokens(usize::MAX);

    fn waiting(specs: &[(u64, usize)]) -> Vec<WaitingSeq> {
        specs
            .iter()
            .map(|&(seq, rem)| WaitingSeq {
                seq,
                slot: SeqSlot::default(),
                remaining_prefill: Tokens(rem),
                context_before: Tokens(0),
            })
            .collect()
    }

    #[test]
    fn carving_respects_token_budget_and_marks_completion() {
        let w = waiting(&[(1, 300), (2, 500)]);
        let chunks = carve_prefill_chunks(&w, Tokens(400), 10, NO_KV_LIMIT);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].tokens, Tokens(300));
        assert!(chunks[0].completes_prompt);
        assert_eq!(chunks[1].tokens, Tokens(100));
        assert!(!chunks[1].completes_prompt);
    }

    #[test]
    fn carving_respects_kv_limit() {
        let w = waiting(&[(1, 300)]);
        let chunks = carve_prefill_chunks(&w, Tokens(1000), 10, Tokens(120));
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].tokens, Tokens(120));
        assert!(!chunks[0].completes_prompt);
    }

    #[test]
    fn carving_respects_seq_budget() {
        let w = waiting(&[(1, 10), (2, 10), (3, 10)]);
        let chunks = carve_prefill_chunks(&w, Tokens(1000), 2, NO_KV_LIMIT);
        assert_eq!(chunks.len(), 2);
    }

    #[test]
    fn zero_budget_yields_no_chunks() {
        let w = waiting(&[(1, 10)]);
        assert!(carve_prefill_chunks(&w, Tokens(0), 10, NO_KV_LIMIT).is_empty());
        assert!(carve_prefill_chunks(&w, Tokens(10), 10, Tokens(0)).is_empty());
    }

    #[test]
    fn weighted_carving_matches_plain_at_zero_context() {
        // With context 0 and a huge quad_ref, weighting is ≈1 per token.
        let w = waiting(&[(1, 300), (2, 500)]);
        let plain = carve_prefill_chunks(&w, Tokens(400), 10, NO_KV_LIMIT);
        let weighted =
            carve_prefill_chunks_weighted(&w, 400.0, 10, NO_KV_LIMIT, Tokens(1), 1e12);
        assert_eq!(plain, weighted);
    }

    #[test]
    fn weighted_carving_shrinks_long_context_chunks() {
        let near = vec![WaitingSeq {
            seq: 1,
            slot: SeqSlot::default(),
            remaining_prefill: Tokens(4096),
            context_before: Tokens(0),
        }];
        let far = vec![WaitingSeq {
            seq: 2,
            slot: SeqSlot::default(),
            remaining_prefill: Tokens(4096),
            context_before: Tokens(16_384),
        }];
        let a = carve_prefill_chunks_weighted(&near, 1024.0, 10, NO_KV_LIMIT, Tokens(1), 8192.0);
        let b = carve_prefill_chunks_weighted(&far, 1024.0, 10, NO_KV_LIMIT, Tokens(1), 8192.0);
        assert!(
            b[0].tokens.get() < a[0].tokens.get() / 2,
            "context 16K chunk ({}) should be much smaller than context-0 ({})",
            b[0].tokens,
            a[0].tokens
        );
    }

    #[test]
    fn weighted_carving_cost_accounting_is_consistent() {
        // The carved chunks' summed cost never exceeds the budget.
        let w = vec![
            WaitingSeq {
                seq: 1,
                slot: SeqSlot::default(),
                remaining_prefill: Tokens(700),
                context_before: Tokens(2000),
            },
            WaitingSeq {
                seq: 2,
                slot: SeqSlot::default(),
                remaining_prefill: Tokens(900),
                context_before: Tokens(0),
            },
        ];
        let quad_ref = 4096.0;
        let budget = 800.0;
        let chunks =
            carve_prefill_chunks_weighted(&w, budget, 10, NO_KV_LIMIT, Tokens(1), quad_ref);
        let cost: f64 = chunks
            .iter()
            .map(|c| {
                let n = c.tokens.get() as f64;
                n + (c.context_before.get() as f64 * n + n * n / 2.0) / quad_ref
            })
            .sum();
        assert!(cost <= budget * 1.01, "cost {cost} exceeds budget {budget}");
        assert!(!chunks.is_empty());
    }

    #[test]
    fn blocks_to_append_counts_block_boundaries() {
        let bs = Tokens(16);
        assert_eq!(blocks_to_append(Tokens(0), Tokens(16), bs), Blocks(1));
        assert_eq!(blocks_to_append(Tokens(15), Tokens(1), bs), Blocks(0));
        assert_eq!(blocks_to_append(Tokens(16), Tokens(1), bs), Blocks(1));
        assert_eq!(blocks_to_append(Tokens(20), Tokens(12), bs), Blocks(0));
        assert_eq!(blocks_to_append(Tokens(20), Tokens(13), bs), Blocks(1));
    }

    #[test]
    fn block_aware_carving_charges_whole_blocks() {
        // One free block of 16; a fresh sequence can take at most 16
        // tokens even with a huge token budget.
        let w = waiting(&[(1, 300)]);
        let chunks =
            carve_prefill_chunks_block_aware(&w, Tokens(1000), 10, Tokens(16), Tokens(16));
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].tokens, Tokens(16));
    }

    #[test]
    fn block_aware_carving_uses_partial_block_slack() {
        // Context 20 owns 2 blocks of 16 with 12 tokens of slack; with no
        // free blocks it may still grow by exactly that slack.
        let w = vec![WaitingSeq {
            seq: 1,
            slot: SeqSlot::default(),
            remaining_prefill: Tokens(300),
            context_before: Tokens(20),
        }];
        let chunks = carve_prefill_chunks_block_aware(&w, Tokens(1000), 10, Tokens(0), Tokens(16));
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].tokens, Tokens(12));
    }

    #[test]
    fn block_aware_carving_skips_stuck_head_for_slack_holder() {
        // A fresh head can't allocate (no free blocks), but a later
        // sequence with slack in its partial block still proceeds.
        let w = vec![
            WaitingSeq {
                seq: 1,
                slot: SeqSlot::default(),
                remaining_prefill: Tokens(100),
                context_before: Tokens(0),
            },
            WaitingSeq {
                seq: 2,
                slot: SeqSlot::default(),
                remaining_prefill: Tokens(100),
                context_before: Tokens(24),
            },
        ];
        let chunks = carve_prefill_chunks_block_aware(&w, Tokens(1000), 10, Tokens(0), Tokens(16));
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].seq, 2);
        assert_eq!(chunks[0].tokens, Tokens(8));
    }

    #[test]
    fn block_aware_with_unit_blocks_matches_plain() {
        let w = waiting(&[(1, 300), (2, 500)]);
        assert_eq!(
            carve_prefill_chunks(&w, Tokens(400), 10, Tokens(120)),
            carve_prefill_chunks_block_aware(&w, Tokens(400), 10, Tokens(120), Tokens(1))
        );
    }

    #[test]
    fn prefill_kv_after_decode_reserves_whole_blocks() {
        // 3 free blocks of 16; two decodes at block-aligned contexts each
        // need a fresh block, one mid-block decode needs none.
        let decode = vec![
            DecodeSlot { seq: 1, slot: SeqSlot::default(), context_before: Tokens(32) },
            DecodeSlot { seq: 2, slot: SeqSlot::default(), context_before: Tokens(48) },
            DecodeSlot { seq: 3, slot: SeqSlot::default(), context_before: Tokens(33) },
        ];
        assert_eq!(prefill_kv_after_decode(Tokens(48), &decode, Tokens(16)), Tokens(16));
        // Decode growth alone exhausts KV → nothing left for prefill.
        assert_eq!(prefill_kv_after_decode(Tokens(16), &decode, Tokens(16)), Tokens(0));
        // Token-granular systems degenerate to the old arithmetic.
        assert_eq!(prefill_kv_after_decode(Tokens(10), &decode, Tokens(1)), Tokens(7));
    }

    #[test]
    fn take_decodes_is_fcfs_prefix() {
        let d = vec![
            DecodableSeq { seq: 5, slot: SeqSlot::default(), context_before: Tokens(10) },
            DecodableSeq { seq: 6, slot: SeqSlot::default(), context_before: Tokens(20) },
        ];
        let slots = take_decodes(&d, 1);
        assert_eq!(slots.len(), 1);
        assert_eq!(slots[0].seq, 5);
        assert_eq!(take_decodes(&d, 99).len(), 2);
    }

    #[test]
    fn waiting_tokens_sums_remaining() {
        let v = ScheduleView {
            waiting: waiting(&[(1, 10), (2, 30)]),
            decodable: vec![],
            total_decode_seqs: 0,
            kv_free_rate: 1.0,
            kv_free_tokens: Tokens(100),
            block_size: Tokens(1),
            in_flight_seqs: 0,
            pipeline_depth: 4,
            max_seqs_per_batch: 1024,
        };
        assert_eq!(v.waiting_tokens(), Tokens(40));
    }
}
