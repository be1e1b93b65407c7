//! The FasterTransformer baseline: batch-level (run-to-completion)
//! scheduling.
//!
//! Pre-Orca engines select a group of requests and run it until *every*
//! sequence finishes (§2.2): early-finished sequences idle in the batch and
//! late-joining requests wait outside it. Included as the historical
//! strawman; its head-of-line blocking makes every other policy look good,
//! which is exactly its role in the literature.

use crate::plan::{BatchPlan, PrefillChunk};
use crate::policy::{blocks_to_append, take_decodes, SchedulePolicy, ScheduleView};

/// Batch-level scheduling: admit a batch, run it to completion.
#[derive(Debug, Clone)]
pub struct BatchLevelPolicy {
    /// Sequences admitted per batch.
    pub batch_size: usize,
}

impl Default for BatchLevelPolicy {
    fn default() -> Self {
        Self { batch_size: 32 }
    }
}

impl SchedulePolicy for BatchLevelPolicy {
    fn plan(&self, view: &ScheduleView) -> BatchPlan {
        // A batch is draining while any sequence decodes or is in flight:
        // no admission until the whole batch completes.
        let draining = view.total_decode_seqs > 0 || view.in_flight_seqs > 0;
        if draining {
            let decode = take_decodes(view.decodable(), view.decodable_seqs());
            return BatchPlan { prefill: Vec::new(), decode };
        }
        // Admit a fresh batch of whole prompts, charging whole KV blocks.
        let bs = view.block_size;
        let mut blocks_left = view.kv_free_tokens.full_blocks(bs);
        let mut prefill = Vec::new();
        for w in view.waiting().take(self.batch_size) {
            let slack = w.context_before.to_blocks(bs).to_tokens(bs) - w.context_before;
            if w.remaining_prefill > slack + blocks_left.to_tokens(bs) {
                break;
            }
            prefill.push(PrefillChunk {
                seq: w.seq,
                slot: w.slot,
                tokens: w.remaining_prefill,
                context_before: w.context_before,
                completes_prompt: true,
            });
            blocks_left -= blocks_to_append(w.context_before, w.remaining_prefill, bs);
        }
        BatchPlan { prefill, decode: Vec::new() }
    }

    fn name(&self) -> &'static str {
        "FasterTransformer"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SeqSlot;
    use crate::policy::{DecodableSeq, WaitingSeq};
    use gllm_units::Tokens;

    fn view(
        waiting: &[(u64, usize)],
        decodable: usize,
        total_decode: usize,
        in_flight: usize,
    ) -> ScheduleView<'static> {
        ScheduleView {
            total_decode_seqs: total_decode,
            kv_free_rate: 1.0,
            kv_free_tokens: Tokens(1_000_000),
            block_size: Tokens(1),
            in_flight_seqs: in_flight,
            pipeline_depth: 1,
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
    fn admits_fresh_batch_when_idle() {
        let p = BatchLevelPolicy { batch_size: 2 };
        let plan = p.plan(&view(&[(1, 10), (2, 20), (3, 30)], 0, 0, 0));
        assert_eq!(plan.prefill.len(), 2, "batch size caps admission");
        assert!(plan.decode.is_empty());
    }

    #[test]
    fn refuses_admission_while_draining() {
        let p = BatchLevelPolicy::default();
        let plan = p.plan(&view(&[(9, 10)], 3, 3, 0));
        assert!(plan.prefill.is_empty(), "late joiners wait for the batch");
        assert_eq!(plan.decode.len(), 3);
    }

    #[test]
    fn in_flight_prefill_also_blocks_admission() {
        let p = BatchLevelPolicy::default();
        let plan = p.plan(&view(&[(9, 10)], 0, 0, 2));
        assert!(plan.is_empty());
    }
}
