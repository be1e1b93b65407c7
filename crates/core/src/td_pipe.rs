//! The TD-Pipe baseline: temporally-disaggregated pipeline parallelism.
//!
//! TD-Pipe (Zhang et al., 2025 — the paper's §2.4 and related work)
//! attacks the prefill/decode *compute-time* imbalance by separating the
//! two phases **in time**: the pipeline runs pure-prefill batches until
//! enough decode work has accumulated, then switches to pure-decode
//! batches until the decode population drains, and so on. This maximises
//! batch homogeneity (great for offline throughput) at the cost of
//! generation stalls during prefill phases (bad for online TPOT) — which
//! is exactly why the paper positions gLLM for online serving and TD-Pipe
//! for the offline scenario.
//!
//! The phase register is interior-mutable: `SchedulePolicy::plan` is
//! `&self`, and phase hysteresis is genuine state. A `Mutex` keeps the
//! policy `Send + Sync`; contention is nil (one scheduler thread).

use std::sync::Mutex;

use gllm_units::Tokens;

use crate::plan::BatchPlan;
use crate::policy::{carve_prefill_chunks_block_aware, take_decodes, SchedulePolicy, ScheduleView};

/// Which phase the pipeline is temporally dedicated to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TdPhase {
    /// Pure chunked-prefill batches.
    Prefill,
    /// Pure decode batches.
    Decode,
}

/// Temporally-disaggregated scheduling.
#[derive(Debug)]
pub struct TdPipe {
    /// Prefill-phase token budget per micro-batch.
    pub prefill_batch_tokens: Tokens,
    /// Switch to the decode phase once this many sequences are decoding
    /// (batch them while they are plentiful).
    pub decode_high_watermark: usize,
    /// Switch back to prefill once the decodable population falls to this
    /// level (and prompts are waiting).
    pub decode_low_watermark: usize,
    phase: Mutex<TdPhase>,
}

impl Default for TdPipe {
    fn default() -> Self {
        Self {
            prefill_batch_tokens: Tokens(2048),
            decode_high_watermark: 256,
            decode_low_watermark: 64,
            phase: Mutex::new(TdPhase::Prefill),
        }
    }
}

impl TdPipe {
    /// A policy with explicit watermarks.
    pub fn new(prefill_batch_tokens: Tokens, high: usize, low: usize) -> Self {
        assert!(low < high);
        Self {
            prefill_batch_tokens,
            decode_high_watermark: high,
            decode_low_watermark: low,
            phase: Mutex::new(TdPhase::Prefill),
        }
    }
}

impl SchedulePolicy for TdPipe {
    fn plan(&self, view: &ScheduleView) -> BatchPlan {
        let mut phase = self.phase.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        // Hysteresis between the two dedicated phases.
        *phase = match *phase {
            TdPhase::Prefill
                if view.waiting_seqs() == 0
                    || view.total_decode_seqs >= self.decode_high_watermark =>
            {
                TdPhase::Decode
            }
            TdPhase::Decode
                if view.total_decode_seqs <= self.decode_low_watermark
                    && view.waiting_seqs() > 0 =>
            {
                TdPhase::Prefill
            }
            p => p,
        };

        match *phase {
            TdPhase::Prefill => {
                let prefill = carve_prefill_chunks_block_aware(
                    view.waiting(),
                    self.prefill_batch_tokens,
                    view.max_seqs_per_batch,
                    view.kv_free_tokens,
                    view.block_size,
                );
                if prefill.is_empty() {
                    // Nothing to prefill after all: serve decodes rather
                    // than idle (mirrors TD-Pipe's drain behaviour).
                    return BatchPlan {
                        prefill: Vec::new(),
                        decode: take_decodes(view.decodable(), view.max_seqs_per_batch),
                    };
                }
                BatchPlan { prefill, decode: Vec::new() }
            }
            TdPhase::Decode => {
                // Pipeline-aware decode: spread the population over the
                // depth so every stage stays busy during the decode phase
                // (TD-Pipe interleaves in-flight decode batches).
                let budget = view
                    .total_decode_seqs
                    .div_ceil(view.pipeline_depth.max(1))
                    .min(view.max_seqs_per_batch);
                let decode = take_decodes(view.decodable(), budget);
                if decode.is_empty() && view.waiting_seqs() > 0 && view.in_flight_seqs == 0 {
                    // Decode drained entirely while we held the phase:
                    // fall through to prefill immediately.
                    *phase = TdPhase::Prefill;
                    let prefill = carve_prefill_chunks_block_aware(
                        view.waiting(),
                        self.prefill_batch_tokens,
                        view.max_seqs_per_batch,
                        view.kv_free_tokens,
                        view.block_size,
                    );
                    return BatchPlan { prefill, decode: Vec::new() };
                }
                BatchPlan { prefill: Vec::new(), decode }
            }
        }
    }

    fn name(&self) -> &'static str {
        "TD-Pipe"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SeqSlot;
    use crate::policy::{DecodableSeq, WaitingSeq};

    fn view(waiting: usize, decodable: usize, total_decode: usize) -> ScheduleView<'static> {
        ScheduleView {
            total_decode_seqs: total_decode,
            kv_free_rate: 1.0,
            kv_free_tokens: Tokens(usize::MAX >> 1),
            block_size: Tokens(1),
            in_flight_seqs: 0,
            pipeline_depth: 4,
            max_seqs_per_batch: 1024,
            ..ScheduleView::from_lists(
                (0..waiting)
                    .map(|i| WaitingSeq {
                        seq: i as u64,
                        slot: SeqSlot::default(),
                        remaining_prefill: Tokens(500),
                        context_before: Tokens(0),
                    })
                    .collect(),
                (0..decodable)
                    .map(|i| DecodableSeq { seq: 1000 + i as u64, slot: SeqSlot::default(), context_before: Tokens(128) })
                    .collect(),
            )
        }
    }

    #[test]
    fn prefill_phase_produces_pure_prefill_batches() {
        let p = TdPipe::default();
        let plan = p.plan(&view(8, 10, 10));
        assert!(plan.decode.is_empty(), "prefill phase admits no decodes");
        assert_eq!(plan.prefill_tokens(), Tokens(2048));
    }

    #[test]
    fn high_watermark_switches_to_pure_decode() {
        let p = TdPipe::new(Tokens(2048), 16, 2);
        // Decode population reaches the high watermark → decode phase,
        // spread over the pipeline depth (20 / depth 4 = 5).
        let plan = p.plan(&view(8, 20, 20));
        assert!(plan.prefill.is_empty(), "decode phase admits no prefill");
        assert_eq!(plan.decode.len(), 5);
        // Stays in decode above the low watermark.
        let plan = p.plan(&view(8, 10, 10));
        assert!(plan.prefill.is_empty());
    }

    #[test]
    fn low_watermark_switches_back_to_prefill() {
        let p = TdPipe::new(Tokens(2048), 16, 2);
        p.plan(&view(8, 20, 20)); // → decode
        let plan = p.plan(&view(8, 2, 2)); // ≤ low, prompts waiting → prefill
        assert!(plan.decode.is_empty());
        assert!(plan.prefill_tokens() > Tokens(0));
    }

    #[test]
    fn empty_waiting_queue_forces_decode_phase() {
        let p = TdPipe::default();
        let plan = p.plan(&view(0, 6, 6));
        // Depth-4 spread of 6 decodes → ceil(6/4) = 2 per batch.
        assert_eq!(plan.decode.len(), 2);
    }

    #[test]
    fn decode_phase_with_nothing_decodable_falls_through_to_prefill() {
        let p = TdPipe::new(Tokens(2048), 4, 1);
        p.plan(&view(8, 6, 6)); // → decode
        let plan = p.plan(&view(8, 0, 0));
        assert!(plan.prefill_tokens() > Tokens(0), "must not deadlock idle");
    }
}
