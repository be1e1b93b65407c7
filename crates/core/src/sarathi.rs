//! The Sarathi-Serve baseline policy.
//!
//! Sarathi-Serve (OSDI '24) performs stall-free hybrid batching under a
//! *fixed token budget*: it first admits **all** available decode steps,
//! then fills the remaining budget with chunked prefill (§2.2). This is the
//! scheduling policy of vLLM and SGLang in the paper's evaluation (budget
//! 2048), and — run on top of the gLLM runtime — the paper's `gLLM w/ CK`
//! ablation variant.
//!
//! Its two failure modes are exactly what Fig. 1 shows: (1) when no prompts
//! are waiting, batches shrink to the decode population (insufficient
//! prefill tokens); (2) it grabs every decode at once, so in a pipeline the
//! other micro-batches starve (uneven decode distribution). gLLM's Token
//! Throttling addresses both.

use gllm_units::Tokens;

use crate::plan::BatchPlan;
use crate::policy::{
    carve_prefill_chunks_block_aware, prefill_kv_after_decode, take_decodes, SchedulePolicy,
    ScheduleView,
};

/// Sarathi-Serve: decode-first hybrid batching under a fixed token budget.
#[derive(Debug, Clone)]
pub struct SarathiServe {
    /// Fixed total token budget per micro-batch (paper: 2048).
    pub token_budget: Tokens,
}

impl Default for SarathiServe {
    fn default() -> Self {
        Self { token_budget: Tokens(2048) }
    }
}

impl SarathiServe {
    /// A policy with the given fixed token budget.
    pub fn new(token_budget: Tokens) -> Self {
        assert!(token_budget >= Tokens(1));
        Self { token_budget }
    }
}

impl SchedulePolicy for SarathiServe {
    fn plan(&self, view: &ScheduleView) -> BatchPlan {
        // Step 1 (paper Fig. 5 ❶): schedule ALL decode tokens. Decode KV
        // slots mostly land in block slack; genuine exhaustion is handled
        // by admission (preemption), not by the policy.
        let decode_budget = view
            .decodable_seqs()
            .min(self.token_budget.get())
            .min(view.max_seqs_per_batch);
        let decode = take_decodes(view.decodable(), decode_budget);

        // Step 2 (paper Fig. 5 ❷): maximise chunked prefill within the
        // remaining fixed budget, against the KV blocks left once decode
        // steps have claimed theirs.
        let remaining = self.token_budget - Tokens(decode.len());
        let kv_left = prefill_kv_after_decode(view.kv_free_tokens, &decode, view.block_size);
        let seq_budget = view.max_seqs_per_batch.saturating_sub(decode.len());
        let prefill = carve_prefill_chunks_block_aware(
            view.waiting(),
            remaining,
            seq_budget,
            kv_left,
            view.block_size,
        );

        BatchPlan { prefill, decode }
    }

    fn budget_caps(&self, view: &ScheduleView) -> Option<(Tokens, usize)> {
        let decode = view
            .decodable_seqs()
            .min(self.token_budget.get())
            .min(view.max_seqs_per_batch);
        Some((self.token_budget - Tokens(decode), decode))
    }

    fn name(&self) -> &'static str {
        "Sarathi-Serve"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SeqSlot;
    use crate::policy::{DecodableSeq, WaitingSeq};

    fn view(waiting: &[(u64, usize)], decodable: usize, kv_free_tokens: usize) -> ScheduleView<'static> {
        ScheduleView {
            total_decode_seqs: decodable,
            kv_free_rate: 1.0,
            kv_free_tokens: Tokens(kv_free_tokens),
            block_size: Tokens(1),
            in_flight_seqs: 0,
            pipeline_depth: 4,
            max_seqs_per_batch: 1024,
            ..ScheduleView::from_lists(
                waiting
                    .iter()
                    .map(|&(seq, rem)| WaitingSeq {
                        seq,
                        slot: SeqSlot::default(),
                        remaining_prefill: Tokens(rem),
                        context_before: Tokens(0),
                    })
                    .collect(),
                (0..decodable)
                    .map(|i| DecodableSeq { seq: 100 + i as u64, slot: SeqSlot::default(), context_before: Tokens(64) })
                    .collect(),
            )
        }
    }

    #[test]
    fn schedules_all_decodes_then_fills_budget_with_prefill() {
        let p = SarathiServe::default();
        let plan = p.plan(&view(&[(1, 5000)], 48, 1_000_000));
        assert_eq!(plan.decode.len(), 48, "all decodes grabbed eagerly");
        assert_eq!(plan.prefill_tokens(), Tokens(2000), "prefill fills 2048 − 48");
        assert_eq!(plan.total_tokens(), Tokens(2048));
    }

    #[test]
    fn no_waiting_prompts_leaves_budget_unused() {
        // The paper's first fluctuation cause: decode-only batches.
        let p = SarathiServe::default();
        let plan = p.plan(&view(&[], 16, 1_000_000));
        assert_eq!(plan.total_tokens(), Tokens(16));
    }

    #[test]
    fn kv_exhaustion_halts_prefill() {
        // The paper's second fluctuation cause: KV-bound batches.
        let p = SarathiServe::default();
        let plan = p.plan(&view(&[(1, 5000)], 10, 10));
        assert_eq!(plan.decode.len(), 10);
        assert_eq!(plan.prefill_tokens(), Tokens(0));
    }

    #[test]
    fn prefill_chunks_span_multiple_requests() {
        let p = SarathiServe::new(Tokens(1024));
        let plan = p.plan(&view(&[(1, 300), (2, 300), (3, 5000)], 0, 1_000_000));
        assert_eq!(plan.prefill.len(), 3);
        assert_eq!(plan.prefill_tokens(), Tokens(1024));
        assert!(plan.prefill[0].completes_prompt);
        assert!(plan.prefill[1].completes_prompt);
        assert!(!plan.prefill[2].completes_prompt);
        assert_eq!(plan.prefill[2].tokens, Tokens(424));
    }

    #[test]
    fn decode_population_can_consume_entire_budget() {
        let p = SarathiServe::new(Tokens(64));
        let plan = p.plan(&view(&[(1, 100)], 64, 1_000_000));
        assert_eq!(plan.decode.len(), 64);
        assert_eq!(plan.prefill_tokens(), Tokens(0));
    }
}
