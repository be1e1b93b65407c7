//! The map-based request pool the slab replaced, kept as the oracle of
//! the differential test in `pool.rs`: every sequence in a
//! `BTreeMap<u64, Sequence>`, an arrival-order id list pruned lazily, and
//! a full walk of the live sequences per view. Views carry the default
//! slot; the test compares them with the slab's slots cleared.

use std::collections::BTreeMap;

use gllm_units::Tokens;

use super::{BatchOutcome, EmittedToken};
use crate::plan::{BatchPlan, SeqSlot};
use crate::policy::{DecodableSeq, ScheduleView, WaitingSeq};
use crate::sequence::{Phase, Sequence};

/// The global sequence pool.
#[derive(Debug, Clone, Default)]
pub struct RequestPool {
    /// BTreeMap, not HashMap: iteration feeds the deterministic sim plane.
    seqs: BTreeMap<u64, Sequence>,
    /// Arrival order for FCFS scheduling (finished ids pruned lazily).
    order: Vec<u64>,
    max_seqs_per_batch: usize,
    /// Chunked pipeline parallelism: allow a sequence's next prefill chunk
    /// to be scheduled while earlier chunks are still in flight in later
    /// pipeline stages.
    cpp: bool,
    /// Running count of unfinished sequences (maintained on every
    /// transition so `unfinished_count` is O(1)).
    unfinished: usize,
    /// Whether `order` is ascending by id. True for the sim plane (trace
    /// ids arrive in order), which lets `view` walk `seqs` directly
    /// instead of doing one map lookup per id.
    order_sorted: bool,
}

impl RequestPool {
    /// A pool with the engine's per-batch sequence cap (vLLM default 1024).
    pub fn new(max_seqs_per_batch: usize) -> Self {
        Self {
            seqs: BTreeMap::new(),
            order: Vec::new(),
            max_seqs_per_batch,
            cpp: false,
            unfinished: 0,
            order_sorted: true,
        }
    }

    /// Enable chunked pipeline parallelism (intra-request chunk overlap,
    /// the CPP optimisation the paper integrates in §3.4).
    pub fn with_cpp(mut self, cpp: bool) -> Self {
        self.cpp = cpp;
        self
    }

    /// Admit a new request.
    pub fn add(&mut self, id: u64, prompt_len: usize, max_output: usize) {
        let prev = self.seqs.insert(id, Sequence::new(id, prompt_len, max_output));
        assert!(prev.is_none(), "duplicate request id {id}");
        if self.order.last().is_some_and(|&last| id < last) {
            self.order_sorted = false;
        }
        self.order.push(id);
        self.unfinished += 1;
    }

    /// Admit a sequence that is already decoding: `context_len` KV tokens
    /// are resident (the caller allocated them) and `generated ≥ 1` output
    /// tokens exist. This is the decode-side admission path of a
    /// prefill/decode-disaggregated deployment, where the prefill cluster
    /// computed the context and shipped the KV across.
    pub fn add_decoding(
        &mut self,
        id: u64,
        context_len: usize,
        generated: usize,
        max_output: usize,
    ) {
        assert!(generated >= 1, "a decoding sequence has produced its first token");
        assert!(generated < max_output, "already finished");
        assert!(context_len >= generated, "context must cover the prompt");
        let mut s = Sequence::new(id, context_len, max_output);
        // The transferred context counts as prefilled; the original prompt
        // (for recomputation after preemption) excludes the generated
        // tokens whose KV rode along.
        s.base_prompt_len = context_len + 1 - generated;
        s.prefilled = context_len;
        s.generated = generated;
        s.phase = Phase::Decoding;
        let prev = self.seqs.insert(id, s);
        assert!(prev.is_none(), "duplicate request id {id}");
        if self.order.last().is_some_and(|&last| id < last) {
            self.order_sorted = false;
        }
        self.order.push(id);
        self.unfinished += 1;
    }

    /// Borrow a sequence.
    pub fn seq(&self, id: u64) -> Option<&Sequence> {
        self.seqs.get(&id)
    }

    /// Number of unfinished sequences (a running counter, O(1)).
    pub fn unfinished_count(&self) -> usize {
        debug_assert_eq!(
            self.unfinished,
            self.seqs.values().filter(|s| !s.is_finished()).count()
        );
        self.unfinished
    }

    /// Whether any sequence still needs work (including in-flight ones).
    pub fn has_work(&self) -> bool {
        self.unfinished_count() > 0
    }

    /// Build the scheduling snapshot. `kv_free_rate` / `kv_free_tokens` /
    /// `block_size` come from the KV cache manager; `pipeline_depth` from
    /// the engine.
    pub fn view(
        &self,
        kv_free_rate: f64,
        kv_free_tokens: Tokens,
        block_size: Tokens,
        pipeline_depth: usize,
    ) -> ScheduleView {
        // Pre-sizing absorbs the growth reallocations: the view is rebuilt
        // on every schedule attempt, the simulator's hottest loop.
        let mut waiting = Vec::with_capacity(self.seqs.len());
        let mut decodable = Vec::with_capacity(self.seqs.len());
        let mut total_decode = 0usize;
        let mut in_flight = 0usize;
        let mut visit = |s: &Sequence| {
            if s.is_finished() {
                return;
            }
            if s.is_in_flight() {
                in_flight += 1;
            }
            match s.phase {
                Phase::Waiting if s.prefill_schedulable(self.cpp) => waiting.push(WaitingSeq {
                    seq: s.id,
                    slot: SeqSlot::default(),
                    remaining_prefill: Tokens(s.remaining_prefill()),
                    context_before: Tokens(s.context_len()),
                }),
                Phase::Decoding => {
                    total_decode += 1;
                    if s.decode_schedulable() {
                        decodable.push(DecodableSeq {
                            seq: s.id,
                            slot: SeqSlot::default(),
                            context_before: Tokens(s.context_len()),
                        });
                    }
                }
                _ => {}
            }
        };
        if self.order_sorted {
            // `order` is ascending by id, so walking the map visits the
            // same sequences in the same (FCFS) order without one
            // O(log n) lookup per id.
            self.seqs.values().for_each(&mut visit);
        } else {
            self.order.iter().filter_map(|id| self.seqs.get(id)).for_each(&mut visit);
        }
        ScheduleView {
            waiting,
            decodable,
            total_decode_seqs: total_decode,
            kv_free_rate,
            kv_free_tokens,
            block_size,
            in_flight_seqs: in_flight,
            pipeline_depth,
            max_seqs_per_batch: self.max_seqs_per_batch,
        }
    }

    /// Atomically move every sequence in `plan` in-flight. Panics if the
    /// plan is stale (sequence missing, already in flight, or the chunk
    /// does not match the sequence's committed context) — policies must
    /// plan from a fresh view.
    pub fn commit(&mut self, plan: &BatchPlan) {
        for c in &plan.prefill {
            // lint:allow(panic-freedom): documented contract — commit() panics on stale plans
            let s = self.seqs.get_mut(&c.seq).expect("unknown sequence in plan");
            assert_eq!(
                c.context_before.get(),
                s.context_len(),
                "stale prefill chunk for sequence {}",
                c.seq
            );
            assert!(
                c.completes_prompt == (c.tokens.get() == s.remaining_prefill()),
                "completion flag mismatch for sequence {}",
                c.seq
            );
            s.commit_prefill(c.tokens.get());
        }
        for d in &plan.decode {
            // lint:allow(panic-freedom): documented contract — commit() panics on stale plans
            let s = self.seqs.get_mut(&d.seq).expect("unknown sequence in plan");
            assert_eq!(
                d.context_before.get(),
                s.context_len(),
                "stale decode slot for sequence {}",
                d.seq
            );
            s.commit_decode();
        }
    }

    /// Apply the completion of a committed batch, emitting tokens and
    /// collecting finished sequences.
    pub fn complete(&mut self, plan: &BatchPlan) -> BatchOutcome {
        let mut outcome = BatchOutcome::default();
        let mut apply = |id: u64, emitted: bool, seqs: &BTreeMap<u64, Sequence>| {
            if emitted {
                let finished = seqs[&id].is_finished();
                outcome.emitted.push(EmittedToken { seq: id, finished });
                if finished {
                    outcome.finished.push((id, SeqSlot::default()));
                }
            }
        };
        for c in &plan.prefill {
            // lint:allow(panic-freedom): complete() shares commit()'s stale-plan contract
            let s = self.seqs.get_mut(&c.seq).expect("unknown sequence in plan");
            let emitted = s.complete_prefill(c.completes_prompt);
            apply(c.seq, emitted, &self.seqs);
        }
        for d in &plan.decode {
            // lint:allow(panic-freedom): complete() shares commit()'s stale-plan contract
            let s = self.seqs.get_mut(&d.seq).expect("unknown sequence in plan");
            let emitted = s.complete_decode();
            apply(d.seq, emitted, &self.seqs);
        }
        self.unfinished -= outcome.finished.len();
        self.prune_finished();
        outcome
    }

    /// Roll back a committed plan whose micro-batch will never complete
    /// (the pipeline stage executing it died). Every sequence the plan
    /// moved in-flight returns to its pre-commit state: prefill chunks
    /// give back their KV token accounting, decode slots their appended
    /// slot. Sequences the pool no longer knows are skipped — a recovery
    /// sweep must not panic on a request that was aborted in between.
    pub fn uncommit(&mut self, plan: &BatchPlan) {
        for c in &plan.prefill {
            if let Some(s) = self.seqs.get_mut(&c.seq) {
                s.uncommit_prefill(c.tokens.get());
            }
        }
        for d in &plan.decode {
            if let Some(s) = self.seqs.get_mut(&d.seq) {
                s.uncommit_decode();
            }
        }
    }

    /// Reset every live sequence that holds committed KV context for
    /// recomputation — the recovery path after a pipeline failure, where
    /// all resident KV dies with the stages that computed it. In-flight
    /// sequences are skipped (the caller must [`RequestPool::uncommit`]
    /// lost plans first). Returns the reset ids in ascending order.
    pub fn preempt_all_live(&mut self) -> Vec<u64> {
        let mut reset = Vec::new();
        for (&id, s) in self.seqs.iter_mut() {
            if !s.is_finished() && !s.is_in_flight() && s.context_len() > 0 {
                s.reset_for_recompute();
                reset.push(id);
            }
        }
        reset
    }

    /// Pick and reset a preemption victim: the latest-arrival decoding,
    /// not-in-flight sequence whose id is not in `exclude` (the engine passes the sequences already placed in the
    /// micro-batch being formed).
    pub fn preempt_latest_excluding(&mut self, exclude: &[u64]) -> Option<(u64, Tokens)> {
        let victim = self
            .order
            .iter()
            .rev()
            .copied()
            .find(|id| {
                !exclude.contains(id)
                    && self
                        .seqs
                        .get(id)
                        .is_some_and(|s| s.phase == Phase::Decoding && !s.is_in_flight())
            })?;
        // lint:allow(panic-freedom): victim id was found in self.order just above
        let s = self.seqs.get_mut(&victim).expect("victim exists");
        let held = Tokens(s.context_len());
        s.reset_for_recompute();
        Some((victim, held))
    }

    /// Stall breaker: when nothing is in flight and no plan can be formed
    /// (e.g. partially-prefilled sequences hold the whole KV cache), evict
    /// the **latest-arrival** waiting sequence that already committed some
    /// context, forcing it to recompute later. Returns its id and the KV
    /// tokens it held.
    pub fn preempt_stalled_waiting(&mut self) -> Option<(u64, Tokens)> {
        let victim = self.order.iter().rev().copied().find(|id| {
            self.seqs.get(id).is_some_and(|s| {
                s.phase == Phase::Waiting && !s.is_in_flight() && s.context_len() > 0
            })
        })?;
        // lint:allow(panic-freedom): victim id was found in self.order just above
        let s = self.seqs.get_mut(&victim).expect("victim exists");
        let held = Tokens(s.context_len());
        s.reset_for_recompute();
        Some((victim, held))
    }

    /// Abort a request that can never be served (e.g. its prompt exceeds
    /// the cluster's entire KV capacity). The sequence is dropped without
    /// emitting tokens; it must not be in flight.
    pub fn abort(&mut self, id: u64) {
        // lint:allow(panic-freedom): documented contract — abort() is only called with live ids
        let s = self.seqs.get(&id).expect("aborting unknown sequence");
        assert!(!s.is_in_flight(), "cannot abort an in-flight sequence");
        if !s.is_finished() {
            self.unfinished -= 1;
        }
        self.seqs.remove(&id);
        self.order.retain(|&x| x != id);
    }

    fn prune_finished(&mut self) {
        if self.order.len() > 64 && self.order.len() > 2 * self.unfinished_count() {
            let seqs = &self.seqs;
            self.order.retain(|id| seqs.get(id).is_some_and(|s| !s.is_finished()));
            self.seqs.retain(|_, s| !s.is_finished());
        }
    }
}

