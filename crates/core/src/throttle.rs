//! Token Throttling — the paper's §3 contribution.
//!
//! Token Throttling regulates prefill and decode token counts *separately*
//! (decoupled scheduling, §2.5) using global system state:
//!
//! * **WT** (§3.1.1, Eq. 1) throttles by the tokens awaiting prefill:
//!   `#P = min(max(#WP / #T, #MinP), #MaxP)` — new prompts are spread over
//!   `#T` iterations instead of being prefilled eagerly.
//! * **UT** (§3.1.2, Eq. 2) throttles by KV pressure:
//!   `#P = max(#MaxP × KV_free, #MinP)` — prefill slows as the cache fills.
//! * **Threshold** (§3.1.3): when `KV_free < KV_thresh`, prefill is
//!   suspended entirely to protect running decodes from preemption.
//! * **Combined** (Eq. 3, when `KV_free ≥ KV_thresh`):
//!   `#P = max(min(#WP / #T, #MaxP × (KV_free − KV_thresh) / (1 − KV_thresh)), #MinP)`.
//! * **Decode** (§3.2, Eq. 4): `#D = #RD / #PP_depth` — the running decode
//!   population is spread evenly over the micro-batches that can coexist in
//!   the pipeline, instead of Sarathi's "grab every decode now".
//!
//! The `enable_wt` / `enable_ut` switches produce the paper's ablation
//! variants `gLLM w/o WT` and `gLLM w/o UT` (Fig. 15).

use gllm_units::Tokens;
use serde::{Deserialize, Serialize};

use crate::plan::BatchPlan;
use crate::policy::{
    carve_prefill_chunks_block_aware, prefill_kv_after_decode, take_decodes, SchedulePolicy,
    ScheduleView,
};

/// Hyper-parameters of Token Throttling (paper defaults: `#T = 8`,
/// `#MaxP = 2048`, `#MinP = 32`, `KV_thresh = 0.05`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThrottleConfig {
    /// `#T`: iterations over which pending prefill tokens are spread.
    pub iter_t: usize,
    /// `#MaxP`: maximum batched prefill tokens per iteration.
    pub max_p: Tokens,
    /// `#MinP`: minimum batched prefill tokens per iteration.
    pub min_p: Tokens,
    /// `KV_thresh`: KV idle-rate floor below which prefill is suspended.
    pub kv_thresh: f64,
    /// Enable WT (throttling by tokens awaiting prefill, Eq. 1).
    pub enable_wt: bool,
    /// Enable UT (throttling by KV utilisation, Eq. 2).
    pub enable_ut: bool,
    /// Context-length-aware cost estimation (the paper's §6 future work):
    /// when `Some(quad_ref)`, the prefill budget is spent in *estimated
    /// cost* units where a token at context `c` costs `1 + c/quad_ref`,
    /// so long-context chunks shrink to keep batch execution times even.
    /// `quad_ref` is the context length at which attention cost equals the
    /// dense projection cost (hardware-dependent; ≈8–16 K tokens for the
    /// paper's models).
    pub context_aware: Option<f64>,
}

impl Default for ThrottleConfig {
    fn default() -> Self {
        Self {
            iter_t: 8,
            max_p: Tokens(2048),
            min_p: Tokens(32),
            kv_thresh: 0.05,
            enable_wt: true,
            enable_ut: true,
            context_aware: None,
        }
    }
}

impl ThrottleConfig {
    /// The paper's `gLLM w/o WT` ablation.
    pub fn without_wt(mut self) -> Self {
        self.enable_wt = false;
        self
    }

    /// The paper's `gLLM w/o UT` ablation.
    pub fn without_ut(mut self) -> Self {
        self.enable_ut = false;
        self
    }

    /// Enable context-length-aware cost estimation (§6 future work) with
    /// the given quadratic reference context.
    pub fn with_context_aware(mut self, quad_ref: f64) -> Self {
        assert!(quad_ref > 0.0);
        self.context_aware = Some(quad_ref);
        self
    }
}

/// The gLLM scheduling policy.
#[derive(Debug, Clone, Default)]
pub struct TokenThrottle {
    /// Hyper-parameters.
    pub config: ThrottleConfig,
}

impl TokenThrottle {
    /// A policy with the paper's default hyper-parameters.
    pub fn new(config: ThrottleConfig) -> Self {
        Self { config }
    }

    /// The prefill token budget `#P` for the next micro-batch (Eqs. 1–3).
    pub fn prefill_budget(&self, view: &ScheduleView) -> Tokens {
        let cfg = &self.config;
        let wp = view.waiting_tokens();
        if wp.is_zero() {
            return Tokens::ZERO;
        }
        // Threshold safeguard (§3.1.3): suspend prefill near capacity.
        if view.kv_free_rate < cfg.kv_thresh {
            return Tokens::ZERO;
        }
        let wt_term = if cfg.enable_wt {
            Tokens(wp.get().div_ceil(cfg.iter_t))
        } else {
            Tokens(usize::MAX)
        };
        let ut_term = if cfg.enable_ut {
            let scale = (view.kv_free_rate - cfg.kv_thresh) / (1.0 - cfg.kv_thresh);
            Tokens((cfg.max_p.get() as f64 * scale).floor() as usize)
        } else {
            Tokens(usize::MAX)
        };
        wt_term
            .min(ut_term)
            .max(cfg.min_p)
            .min(cfg.max_p)
            .min(wp)
    }

    /// The decode token budget `#D` for the next micro-batch (Eq. 4):
    /// spread all running decodes evenly over the pipeline depth.
    // lint:allow(unit-confusion): #D counts decode sequences (one token each), not Tokens
    pub fn decode_budget(&self, view: &ScheduleView) -> usize {
        if view.total_decode_seqs == 0 {
            return 0;
        }
        view.total_decode_seqs.div_ceil(view.pipeline_depth.max(1))
    }
}

impl SchedulePolicy for TokenThrottle {
    fn plan(&self, view: &ScheduleView) -> BatchPlan {
        let decode_budget = self.decode_budget(view).min(view.max_seqs_per_batch);
        let decode = take_decodes(&view.decodable, decode_budget);

        // A decode step at a block-aligned context claims a whole fresh KV
        // block; reserve those blocks before prefill carves into the
        // remaining free space. (Reserving one *token* per decode here was
        // the overcommit bug the invariant auditor exists to catch.)
        let kv_left = prefill_kv_after_decode(view.kv_free_tokens, &decode, view.block_size);
        let seq_budget = view.max_seqs_per_batch.saturating_sub(decode.len());
        let budget = self.prefill_budget(view);
        let prefill = match self.config.context_aware {
            Some(quad_ref) => crate::policy::carve_prefill_chunks_weighted(
                &view.waiting,
                budget.get() as f64,
                seq_budget,
                kv_left,
                view.block_size,
                quad_ref,
            ),
            None => carve_prefill_chunks_block_aware(
                &view.waiting,
                budget,
                seq_budget,
                kv_left,
                view.block_size,
            ),
        };

        BatchPlan { prefill, decode }
    }

    fn budget_caps(&self, view: &ScheduleView) -> Option<(Tokens, usize)> {
        Some((
            self.prefill_budget(view),
            self.decode_budget(view).min(view.max_seqs_per_batch),
        ))
    }

    fn name(&self) -> &'static str {
        match (self.config.enable_wt, self.config.enable_ut, self.config.context_aware) {
            (true, true, None) => "gLLM",
            (false, true, None) => "gLLM w/o WT",
            (true, false, None) => "gLLM w/o UT",
            (false, false, None) => "gLLM w/o WT+UT",
            (_, _, Some(_)) => "gLLM+ctx",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SeqSlot;
    use crate::policy::{DecodableSeq, WaitingSeq};
    use proptest::prelude::*;

    fn view(wp: usize, decodable: usize, total_decode: usize, kv_free: f64) -> ScheduleView {
        ScheduleView {
            waiting: if wp > 0 {
                vec![WaitingSeq {
                    seq: 1,
                    slot: SeqSlot::default(),
                    remaining_prefill: Tokens(wp),
                    context_before: Tokens(0),
                }]
            } else {
                vec![]
            },
            decodable: (0..decodable)
                .map(|i| DecodableSeq { seq: 100 + i as u64, slot: SeqSlot::default(), context_before: Tokens(64) })
                .collect(),
            total_decode_seqs: total_decode,
            kv_free_rate: kv_free,
            kv_free_tokens: Tokens(1_000_000),
            block_size: Tokens(1),
            in_flight_seqs: 0,
            pipeline_depth: 4,
            max_seqs_per_batch: 1024,
        }
    }

    #[test]
    fn eq1_wt_spreads_pending_tokens_over_t_iterations() {
        // #WP = 8000, #T = 8 → 1000, inside [MinP, MaxP].
        let p = TokenThrottle::default();
        assert_eq!(p.prefill_budget(&view(8000, 0, 0, 1.0)), Tokens(1000));
    }

    #[test]
    fn eq1_clamps_to_min_and_max() {
        let p = TokenThrottle::default();
        // 40/8 = 5 < MinP=32 → raised to MinP (still ≤ #WP = 40).
        assert_eq!(p.prefill_budget(&view(40, 0, 0, 1.0)), Tokens(32));
        // When fewer than MinP tokens wait, schedule all of them.
        assert_eq!(p.prefill_budget(&view(20, 0, 0, 1.0)), Tokens(20));
        // 100/8 = 13 < MinP → MinP, and 100 > MinP so not WP-capped.
        assert_eq!(p.prefill_budget(&view(100, 0, 0, 1.0)), Tokens(32));
        // Huge backlog → MaxP.
        assert_eq!(p.prefill_budget(&view(1_000_000, 0, 0, 1.0)), Tokens(2048));
    }

    #[test]
    fn eq2_ut_scales_with_kv_free_rate() {
        let p = TokenThrottle::new(ThrottleConfig::default().without_wt());
        // KV_free = 0.525, thresh = 0.05 → scale = 0.5 → 1024.
        assert_eq!(p.prefill_budget(&view(1_000_000, 0, 0, 0.525)), Tokens(1024));
        // Full cache free → MaxP.
        assert_eq!(p.prefill_budget(&view(1_000_000, 0, 0, 1.0)), Tokens(2048));
    }

    #[test]
    fn threshold_suspends_prefill_near_capacity() {
        let p = TokenThrottle::default();
        assert_eq!(p.prefill_budget(&view(1_000_000, 0, 0, 0.049)), Tokens(0));
        assert!(p.prefill_budget(&view(1_000_000, 0, 0, 0.051)) > Tokens(0));
    }

    #[test]
    fn eq3_takes_min_of_wt_and_ut_then_floors_at_minp() {
        let p = TokenThrottle::default();
        // WT: 8000/8 = 1000; UT at KV_free 0.1: 2048×(0.05/0.95) ≈ 107.
        assert_eq!(p.prefill_budget(&view(8000, 0, 0, 0.1)), Tokens(107));
        // Near the threshold UT → ~0, MinP floor applies.
        assert_eq!(p.prefill_budget(&view(8000, 0, 0, 0.051)), Tokens(32));
    }

    #[test]
    fn eq4_decode_spread_over_pipeline_depth() {
        let p = TokenThrottle::default();
        // 64 running decodes over depth 4 → 16 per batch.
        assert_eq!(p.decode_budget(&view(0, 64, 64, 1.0)), 16);
        // Fewer decodes than depth → ceil avoids starving (≥1).
        assert_eq!(p.decode_budget(&view(0, 2, 2, 1.0)), 1);
        assert_eq!(p.decode_budget(&view(0, 0, 0, 1.0)), 0);
    }

    #[test]
    fn eq4_counts_in_flight_decodes_in_rd() {
        let p = TokenThrottle::default();
        // 40 total decodes, only 10 available (30 in flight): budget is
        // 40/4 = 10, so this batch takes the 10 available.
        let plan = p.plan(&view(0, 10, 40, 1.0));
        assert_eq!(plan.decode.len(), 10);
    }

    #[test]
    fn plan_reserves_kv_slots_for_decodes_before_prefill() {
        let mut v = view(500, 8, 8, 1.0);
        v.kv_free_tokens = Tokens(10); // 8 decode slots leave 2 for prefill
        let p = TokenThrottle::default();
        let plan = p.plan(&v);
        assert_eq!(plan.decode.len(), 2); // ceil(8/4)
        assert!(plan.prefill_tokens() <= Tokens(8));
    }

    /// Regression test for the block-granularity bug: with 16-token blocks
    /// and 5 free blocks (80 tokens), 4 decodes at block-aligned context 64
    /// consume 4 whole blocks, so prefill must fit in the single remaining
    /// block. The pre-fix code reserved 4 *tokens* and carved a 63-token
    /// prefill — a 3-block overcommit that admission silently absorbed.
    #[test]
    fn plan_reserves_whole_blocks_for_decodes_before_prefill() {
        let mut v = view(500, 16, 16, 1.0);
        v.block_size = Tokens(16);
        v.kv_free_tokens = Tokens(80); // 5 free blocks of 16
        let p = TokenThrottle::default();
        let plan = p.plan(&v);
        assert_eq!(plan.decode.len(), 4); // ceil(16/4), each at context 64
        assert!(
            plan.prefill_tokens() <= Tokens(16),
            "prefill must fit the one block left after decode reservation, got {}",
            plan.prefill_tokens()
        );
        // The plan as a whole fits the 5 free blocks.
        let blocks: gllm_units::Blocks = plan
            .decode
            .iter()
            .map(|d| crate::policy::blocks_to_append(d.context_before, Tokens(1), Tokens(16)))
            .chain(plan.prefill.iter().map(|c| {
                crate::policy::blocks_to_append(c.context_before, c.tokens, Tokens(16))
            }))
            .sum();
        assert!(
            blocks <= gllm_units::Blocks(5),
            "plan claims {blocks} blocks with only 5 free"
        );
    }

    #[test]
    fn budget_caps_match_the_published_budgets() {
        let p = TokenThrottle::default();
        let v = view(8000, 64, 64, 1.0);
        let (prefill, decode) = p.budget_caps(&v).expect("throttle declares caps");
        assert_eq!(prefill, p.prefill_budget(&v));
        assert_eq!(decode, 16);
        let plan = p.plan(&v);
        assert!(plan.prefill_tokens() <= prefill);
        assert!(plan.decode.len() <= decode);
    }

    #[test]
    fn ablation_names() {
        assert_eq!(TokenThrottle::default().name(), "gLLM");
        assert_eq!(
            TokenThrottle::new(ThrottleConfig::default().without_wt()).name(),
            "gLLM w/o WT"
        );
        assert_eq!(
            TokenThrottle::new(ThrottleConfig::default().without_ut()).name(),
            "gLLM w/o UT"
        );
    }

    proptest! {
        /// Eq. 3 invariants: the budget never exceeds MaxP or #WP, is 0
        /// when nothing waits or below threshold, and otherwise ≥
        /// min(MinP, WP).
        #[test]
        fn prefill_budget_bounds(
            wp in 0usize..100_000,
            kv_free in 0.0f64..=1.0,
        ) {
            let p = TokenThrottle::default();
            let b = p.prefill_budget(&view(wp, 0, 0, kv_free));
            prop_assert!(b <= p.config.max_p);
            prop_assert!(b <= Tokens(wp));
            if wp == 0 || kv_free < p.config.kv_thresh {
                prop_assert_eq!(b, Tokens(0));
            } else {
                prop_assert!(b >= p.config.min_p.min(Tokens(wp)));
            }
        }

        /// Eq. 4 invariants: even spread, never zero while decodes exist,
        /// and the per-batch share never exceeds what one batch would need
        /// to cover everything in `depth` batches.
        #[test]
        fn decode_budget_bounds(rd in 0usize..10_000, depth in 1usize..9) {
            let p = TokenThrottle::default();
            let mut v = view(0, rd, rd, 1.0);
            v.pipeline_depth = depth;
            let d = p.decode_budget(&v);
            if rd == 0 {
                prop_assert_eq!(d, 0);
            } else {
                prop_assert!(d >= 1);
                prop_assert!(d * depth >= rd, "depth batches must cover all decodes");
                prop_assert!((d - 1) * depth < rd, "budget is the minimal even share");
            }
        }
    }
}
