//! The output of a scheduling decision: one micro-batch's composition.

use gllm_units::Tokens;
use serde::{Deserialize, Serialize};

// The pool's handle to a live sequence. It lives in `gllm-kvcache`,
// which keys page tables by it, and plans carry it beside the id.
pub use gllm_kvcache::SeqSlot;

/// A chunk of one sequence's prefill assigned to a micro-batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefillChunk {
    /// Sequence receiving the chunk.
    pub seq: u64,
    /// The sequence's pool slot.
    pub slot: SeqSlot,
    /// Prompt tokens in this chunk (≥ 1).
    pub tokens: Tokens,
    /// KV context already committed before this chunk.
    pub context_before: Tokens,
    /// Whether this chunk reaches the end of the prompt (and will therefore
    /// emit the first output token when its batch completes).
    pub completes_prompt: bool,
}

/// One sequence's decode step assigned to a micro-batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecodeSlot {
    /// Sequence taking the step.
    pub seq: u64,
    /// The sequence's pool slot.
    pub slot: SeqSlot,
    /// KV context committed before this step.
    pub context_before: Tokens,
}

/// The micro-batch a policy proposes for the next forward pass.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchPlan {
    /// Prefill chunks, in schedule order.
    pub prefill: Vec<PrefillChunk>,
    /// Decode steps, in schedule order.
    pub decode: Vec<DecodeSlot>,
}

impl BatchPlan {
    /// A plan with no work.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.prefill.is_empty() && self.decode.is_empty()
    }

    /// Prefill tokens scheduled.
    pub fn prefill_tokens(&self) -> Tokens {
        self.prefill.iter().map(|c| c.tokens).sum()
    }

    /// Decode tokens scheduled (= decode sequences).
    pub fn decode_tokens(&self) -> Tokens {
        Tokens(self.decode.len())
    }

    /// Total new tokens in the batch.
    pub fn total_tokens(&self) -> Tokens {
        self.prefill_tokens() + self.decode_tokens()
    }

    /// New KV slots this plan will occupy when committed (every new token
    /// writes one KV entry).
    pub fn kv_slots_needed(&self) -> Tokens {
        self.total_tokens()
    }

    /// Number of distinct sequences in the batch.
    pub fn num_seqs(&self) -> usize {
        self.prefill.len() + self.decode.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_add_up() {
        let plan = BatchPlan {
            prefill: vec![
                PrefillChunk {
                    seq: 1,
                    slot: SeqSlot::default(),
                    tokens: Tokens(512),
                    context_before: Tokens(0),
                    completes_prompt: false,
                },
                PrefillChunk {
                    seq: 2,
                    slot: SeqSlot::default(),
                    tokens: Tokens(100),
                    context_before: Tokens(50),
                    completes_prompt: true,
                },
            ],
            decode: vec![
                DecodeSlot { seq: 3, slot: SeqSlot::default(), context_before: Tokens(200) },
                DecodeSlot { seq: 4, slot: SeqSlot::default(), context_before: Tokens(30) },
            ],
        };
        assert_eq!(plan.prefill_tokens(), Tokens(612));
        assert_eq!(plan.decode_tokens(), Tokens(2));
        assert_eq!(plan.total_tokens(), Tokens(614));
        assert_eq!(plan.kv_slots_needed(), Tokens(614));
        assert_eq!(plan.num_seqs(), 4);
        assert!(!plan.is_empty());
    }

    #[test]
    fn empty_plan() {
        let p = BatchPlan::empty();
        assert!(p.is_empty());
        assert_eq!(p.total_tokens(), Tokens(0));
    }
}
