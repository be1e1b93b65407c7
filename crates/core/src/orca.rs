//! The Orca baseline: iteration-level scheduling *without* chunking.
//!
//! Orca (OSDI '22) introduced iteration-level scheduling — requests join and
//! leave the batch between forward passes — but prefills whole prompts in a
//! single pass. Long prompts therefore stall ongoing decodes (§2.2), which
//! is what Sarathi-Serve's chunking later fixed. Included as the historical
//! baseline the paper's background builds on.

use crate::plan::{BatchPlan, PrefillChunk};
use crate::policy::{
    blocks_to_append, prefill_kv_after_decode, take_decodes, SchedulePolicy, ScheduleView,
};

/// Orca-style iteration-level scheduling with whole-prompt prefill.
#[derive(Debug, Clone)]
pub struct OrcaPolicy {
    /// Cap on *new* prompts admitted per iteration (Orca admits a few at a
    /// time to bound the stall).
    pub max_new_prompts: usize,
}

impl Default for OrcaPolicy {
    fn default() -> Self {
        Self { max_new_prompts: 4 }
    }
}

impl SchedulePolicy for OrcaPolicy {
    fn plan(&self, view: &ScheduleView) -> BatchPlan {
        let decode = take_decodes(
            view.decodable(),
            view.decodable_seqs().min(view.max_seqs_per_batch),
        );
        let bs = view.block_size;
        let mut blocks_left =
            prefill_kv_after_decode(view.kv_free_tokens, &decode, bs).full_blocks(bs);
        let mut seq_budget = view
            .max_seqs_per_batch
            .saturating_sub(decode.len())
            .min(self.max_new_prompts);
        let mut prefill = Vec::new();
        for w in view.waiting() {
            if seq_budget == 0 {
                break;
            }
            // Whole prompts only: skip prompts whose blocks do not fit in
            // free KV (after partial-block slack).
            let slack = w.context_before.to_blocks(bs).to_tokens(bs) - w.context_before;
            if w.remaining_prefill > slack + blocks_left.to_tokens(bs) {
                continue;
            }
            prefill.push(PrefillChunk {
                seq: w.seq,
                slot: w.slot,
                tokens: w.remaining_prefill,
                context_before: w.context_before,
                completes_prompt: true,
            });
            blocks_left -= blocks_to_append(w.context_before, w.remaining_prefill, bs);
            seq_budget -= 1;
        }
        BatchPlan { prefill, decode }
    }

    fn name(&self) -> &'static str {
        "Orca"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SeqSlot;
    use crate::policy::{DecodableSeq, WaitingSeq};
    use gllm_units::Tokens;

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
    fn prefills_whole_prompts_never_chunks() {
        let p = OrcaPolicy::default();
        let plan = p.plan(&view(&[(1, 7000), (2, 100)], 0, 1_000_000));
        assert_eq!(plan.prefill.len(), 2);
        assert!(plan.prefill.iter().all(|c| c.completes_prompt));
        assert_eq!(plan.prefill_tokens(), Tokens(7100));
    }

    #[test]
    fn admission_cap_limits_new_prompts() {
        let p = OrcaPolicy { max_new_prompts: 2 };
        let plan = p.plan(&view(&[(1, 10), (2, 10), (3, 10)], 0, 1_000_000));
        assert_eq!(plan.prefill.len(), 2);
    }

    #[test]
    fn oversized_prompt_is_skipped_not_truncated() {
        let p = OrcaPolicy::default();
        let plan = p.plan(&view(&[(1, 500), (2, 50)], 0, 100));
        assert_eq!(plan.prefill.len(), 1);
        assert_eq!(plan.prefill[0].seq, 2);
    }

    #[test]
    fn decodes_always_ride_along() {
        let p = OrcaPolicy::default();
        let plan = p.plan(&view(&[(1, 100)], 12, 1_000_000));
        assert_eq!(plan.decode.len(), 12);
        assert_eq!(plan.prefill_tokens(), Tokens(100));
    }
}
