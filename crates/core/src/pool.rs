//! The global request pool shared by the scheduler and the execution engine.
//!
//! [`RequestPool`] owns every [`Sequence`] and enforces the invariants
//! pipeline-parallel serving depends on:
//!
//! * a sequence's decode step is inside **at most one** in-flight
//!   micro-batch (its KV state is strictly sequential); prefill chunks may
//!   overlap across micro-batches only when chunked pipeline parallelism
//!   is enabled (`with_cpp`), where FIFO stage order preserves chunk
//!   dependencies,
//! * plans are applied atomically: [`RequestPool::commit`] moves every
//!   planned sequence in-flight before the batch starts, and
//!   [`RequestPool::complete`] releases them and emits tokens when the
//!   batch leaves the last pipeline stage,
//! * preemption victims are chosen latest-arrival-first (vLLM's priority
//!   order), and preempted sequences re-enter the waiting queue for
//!   recomputation.
//!
//! The pool is deliberately independent of clocks and hardware: the
//! discrete-event simulator drives it with virtual time, the threaded
//! runtime with wall time.

use std::collections::BTreeMap;

use gllm_units::Tokens;

use crate::plan::BatchPlan;
use crate::policy::{DecodableSeq, ScheduleView, WaitingSeq};
use crate::sequence::{Phase, Sequence};

/// One output token produced by a completed micro-batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmittedToken {
    /// Sequence that produced the token.
    pub seq: u64,
    /// Whether this token finished the request.
    pub finished: bool,
}

/// Everything a completed micro-batch did to the pool.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Output tokens emitted, in plan order (prefill completions first).
    pub emitted: Vec<EmittedToken>,
    /// Sequences that finished (their KV can be freed).
    pub finished: Vec<u64>,
}

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
                    remaining_prefill: Tokens(s.remaining_prefill()),
                    context_before: Tokens(s.context_len()),
                }),
                Phase::Decoding => {
                    total_decode += 1;
                    if s.decode_schedulable() {
                        decodable.push(DecodableSeq {
                            seq: s.id,
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
                    outcome.finished.push(id);
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

    /// Pick and reset a preemption victim: the **latest-arrival** sequence
    /// that is decoding and not in flight (vLLM preempts the lowest
    /// priority first). Returns its id and the KV tokens it held, or `None`
    /// if nothing is evictable.
    pub fn preempt_latest(&mut self) -> Option<(u64, Tokens)> {
        self.preempt_latest_excluding(&[])
    }

    /// Like [`RequestPool::preempt_latest`] but never evicts an id in
    /// `exclude` (the engine passes the sequences already placed in the
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

    /// Total preemptions across all live sequences.
    pub fn preemption_total(&self) -> u64 {
        self.seqs.values().map(|s| s.preemptions as u64).sum()
    }

    fn prune_finished(&mut self) {
        if self.order.len() > 64 && self.order.len() > 2 * self.unfinished_count() {
            let seqs = &self.seqs;
            self.order.retain(|id| seqs.get(id).is_some_and(|s| !s.is_finished()));
            self.seqs.retain(|_, s| !s.is_finished());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{DecodeSlot, PrefillChunk};
    use crate::policy::SchedulePolicy;
    use crate::sarathi::SarathiServe;
    use crate::throttle::TokenThrottle;

    fn chunk(seq: u64, tokens: usize, before: usize, done: bool) -> PrefillChunk {
        PrefillChunk {
            seq,
            tokens: Tokens(tokens),
            context_before: Tokens(before),
            completes_prompt: done,
        }
    }

    fn slot(seq: u64, before: usize) -> DecodeSlot {
        DecodeSlot { seq, context_before: Tokens(before) }
    }

    fn view(pool: &RequestPool, kv_free_tokens: usize) -> ScheduleView {
        pool.view(1.0, Tokens(kv_free_tokens), Tokens(1), 4)
    }

    #[test]
    fn view_partitions_sequences_by_phase() {
        let mut pool = RequestPool::new(1024);
        pool.add(1, 100, 5);
        pool.add(2, 50, 5);
        // Prefill seq 2 completely; it becomes Decoding.
        let plan = BatchPlan { prefill: vec![chunk(2, 50, 0, true)], decode: vec![] };
        pool.commit(&plan);
        pool.complete(&plan);
        let v = view(&pool, 1000);
        assert_eq!(v.waiting.len(), 1);
        assert_eq!(v.waiting[0].seq, 1);
        assert_eq!(v.decodable.len(), 1);
        assert_eq!(v.decodable[0].seq, 2);
        assert_eq!(v.decodable[0].context_before, Tokens(50));
        assert_eq!(v.total_decode_seqs, 1);
    }

    #[test]
    fn in_flight_sequences_vanish_from_view_but_count_in_rd() {
        let mut pool = RequestPool::new(1024);
        pool.add(1, 10, 5);
        let p1 = BatchPlan { prefill: vec![chunk(1, 10, 0, true)], decode: vec![] };
        pool.commit(&p1);
        pool.complete(&p1);
        // Now decoding; put its decode step in flight.
        let p2 = BatchPlan { prefill: vec![], decode: vec![slot(1, 10)] };
        pool.commit(&p2);
        let v = view(&pool, 1000);
        assert!(v.decodable.is_empty(), "in-flight seq is not schedulable");
        assert_eq!(v.total_decode_seqs, 1, "but it counts in #RD");
        assert_eq!(v.in_flight_seqs, 1);
        pool.complete(&p2);
        assert_eq!(view(&pool, 1000).decodable.len(), 1);
    }

    #[test]
    fn complete_emits_tokens_and_finishes() {
        let mut pool = RequestPool::new(1024);
        pool.add(1, 10, 2);
        let p1 = BatchPlan { prefill: vec![chunk(1, 10, 0, true)], decode: vec![] };
        pool.commit(&p1);
        let o1 = pool.complete(&p1);
        assert_eq!(o1.emitted, vec![EmittedToken { seq: 1, finished: false }]);
        let p2 = BatchPlan { prefill: vec![], decode: vec![slot(1, 10)] };
        pool.commit(&p2);
        let o2 = pool.complete(&p2);
        assert_eq!(o2.emitted, vec![EmittedToken { seq: 1, finished: true }]);
        assert_eq!(o2.finished, vec![1]);
        assert!(!pool.has_work());
    }

    #[test]
    fn partial_chunk_emits_nothing() {
        let mut pool = RequestPool::new(1024);
        pool.add(1, 100, 2);
        let p = BatchPlan { prefill: vec![chunk(1, 40, 0, false)], decode: vec![] };
        pool.commit(&p);
        let o = pool.complete(&p);
        assert!(o.emitted.is_empty());
        let v = view(&pool, 1000);
        assert_eq!(v.waiting[0].remaining_prefill, Tokens(60));
        assert_eq!(v.waiting[0].context_before, Tokens(40));
    }

    #[test]
    #[should_panic(expected = "stale prefill chunk")]
    fn stale_plan_rejected() {
        let mut pool = RequestPool::new(1024);
        pool.add(1, 100, 2);
        let p = BatchPlan { prefill: vec![chunk(1, 40, 10, false)], decode: vec![] };
        pool.commit(&p);
    }

    #[test]
    fn preempt_latest_picks_newest_decoder() {
        let mut pool = RequestPool::new(1024);
        for id in [1, 2] {
            pool.add(id, 10, 5);
            let p = BatchPlan { prefill: vec![chunk(id, 10, 0, true)], decode: vec![] };
            pool.commit(&p);
            pool.complete(&p);
        }
        let (victim, held) = pool.preempt_latest().unwrap();
        assert_eq!(victim, 2);
        assert_eq!(held, Tokens(10));
        let v = view(&pool, 1000);
        assert_eq!(v.decodable.len(), 1);
        assert_eq!(v.waiting.len(), 1);
        assert_eq!(v.waiting[0].seq, 2);
        // Recompute includes the generated token.
        assert_eq!(v.waiting[0].remaining_prefill, Tokens(11));
        assert_eq!(pool.preemption_total(), 1);
    }

    #[test]
    fn cpp_pool_overlaps_prefill_chunks_and_emits_once() {
        let mut pool = RequestPool::new(1024).with_cpp(true);
        pool.add(1, 100, 3);
        let p1 = BatchPlan { prefill: vec![chunk(1, 60, 0, false)], decode: vec![] };
        pool.commit(&p1);
        // With CPP the remainder is schedulable while chunk 1 is in flight.
        let v = view(&pool, 1000);
        assert_eq!(v.waiting.len(), 1);
        assert_eq!(v.waiting[0].remaining_prefill, Tokens(40));
        assert_eq!(v.waiting[0].context_before, Tokens(60));
        let p2 = BatchPlan { prefill: vec![chunk(1, 40, 60, true)], decode: vec![] };
        pool.commit(&p2);
        assert!(view(&pool, 1000).waiting.is_empty());
        // Chunks complete in pipeline order; only the final one emits.
        let o1 = pool.complete(&p1);
        assert!(o1.emitted.is_empty());
        let o2 = pool.complete(&p2);
        assert_eq!(o2.emitted, vec![EmittedToken { seq: 1, finished: false }]);
        assert_eq!(pool.seq(1).unwrap().generated, 1);
    }

    #[test]
    fn non_cpp_pool_hides_in_flight_waiting_sequences() {
        let mut pool = RequestPool::new(1024); // cpp off
        pool.add(1, 100, 3);
        let p1 = BatchPlan { prefill: vec![chunk(1, 60, 0, false)], decode: vec![] };
        pool.commit(&p1);
        assert!(view(&pool, 1000).waiting.is_empty());
    }

    #[test]
    fn uncommit_restores_the_pre_commit_state() {
        let mut pool = RequestPool::new(1024);
        pool.add(1, 100, 5);
        pool.add(2, 10, 5);
        // Seq 2 reaches decode; seq 1 is mid-prefill.
        let warm = BatchPlan { prefill: vec![chunk(2, 10, 0, true)], decode: vec![] };
        pool.commit(&warm);
        pool.complete(&warm);
        let lost = BatchPlan {
            prefill: vec![chunk(1, 40, 0, false)],
            decode: vec![slot(2, 10)],
        };
        pool.commit(&lost);
        assert!(pool.seq(1).unwrap().is_in_flight());
        assert!(pool.seq(2).unwrap().is_in_flight());
        pool.uncommit(&lost);
        let s1 = pool.seq(1).unwrap();
        assert!(!s1.is_in_flight());
        assert_eq!(s1.prefilled, 0);
        assert_eq!(s1.remaining_prefill(), 100);
        let s2 = pool.seq(2).unwrap();
        assert!(!s2.is_in_flight());
        assert_eq!(s2.context_len(), 10, "decode KV rolled back");
        assert_eq!(s2.generated, 1, "emitted tokens are untouched");
        // The identical plan recommits cleanly (not stale).
        pool.commit(&lost);
        pool.complete(&lost);
    }

    #[test]
    fn uncommit_skips_unknown_sequences() {
        let mut pool = RequestPool::new(1024);
        pool.add(1, 10, 5);
        let plan = BatchPlan { prefill: vec![chunk(1, 10, 0, true), chunk(9, 4, 0, true)], decode: vec![] };
        // Only seq 1 exists; the rollback must not panic on seq 9.
        pool.uncommit(&BatchPlan { prefill: vec![chunk(9, 4, 0, true)], decode: vec![] });
        drop(plan);
        assert_eq!(pool.seq(1).unwrap().prefilled, 0);
    }

    #[test]
    fn preempt_all_live_resets_everything_with_context() {
        let mut pool = RequestPool::new(1024);
        pool.add(1, 10, 5); // will be decoding with 10 KV
        pool.add(2, 80, 5); // will be mid-prefill with 30 KV
        pool.add(3, 20, 5); // never scheduled: no context, left alone
        let p1 = BatchPlan { prefill: vec![chunk(1, 10, 0, true)], decode: vec![] };
        pool.commit(&p1);
        pool.complete(&p1);
        let p2 = BatchPlan { prefill: vec![chunk(2, 30, 0, false)], decode: vec![] };
        pool.commit(&p2);
        pool.complete(&p2);
        let reset = pool.preempt_all_live();
        assert_eq!(reset, vec![1, 2]);
        for id in [1, 2] {
            let s = pool.seq(id).unwrap();
            assert_eq!(s.phase, Phase::Waiting, "seq {id}");
            assert_eq!(s.context_len(), 0, "seq {id}");
            assert_eq!(s.preemptions, 1, "seq {id}");
        }
        // Seq 1 recomputes its generated token as prompt.
        assert_eq!(pool.seq(1).unwrap().remaining_prefill(), 11);
        let s3 = pool.seq(3).unwrap();
        assert_eq!(s3.preemptions, 0, "contextless sequence untouched");
        assert_eq!(s3.remaining_prefill(), 20);
    }

    #[test]
    fn preempt_skips_in_flight_sequences() {
        let mut pool = RequestPool::new(1024);
        pool.add(1, 10, 5);
        let p = BatchPlan { prefill: vec![chunk(1, 10, 0, true)], decode: vec![] };
        pool.commit(&p);
        pool.complete(&p);
        let d = BatchPlan { prefill: vec![], decode: vec![slot(1, 10)] };
        pool.commit(&d);
        assert!(pool.preempt_latest().is_none());
    }

    /// Drive a full workload through a policy end-to-end on the pool alone:
    /// every request must finish with exactly `max_output` tokens, under
    /// both Sarathi and Token Throttling.
    fn drive_to_completion(policy: &dyn SchedulePolicy) -> (usize, usize) {
        let mut pool = RequestPool::new(1024);
        for id in 0..20 {
            pool.add(id, 64 + (id as usize * 13) % 200, 1 + (id as usize * 7) % 30);
        }
        let mut iterations = 0;
        let mut tokens = 0;
        while pool.has_work() {
            iterations += 1;
            assert!(iterations < 10_000, "policy failed to drain the pool");
            let view = pool.view(1.0, Tokens(usize::MAX), Tokens(1), 4);
            let plan = policy.plan(&view);
            if plan.is_empty() {
                // Nothing schedulable (everything in flight) cannot happen
                // in this single-batch loop.
                panic!("empty plan with work remaining");
            }
            pool.commit(&plan);
            tokens += pool.complete(&plan).emitted.len();
        }
        (iterations, tokens)
    }

    #[test]
    fn view_keeps_arrival_order_for_sorted_and_unsorted_ids() {
        // Sorted ids hit the direct map walk; out-of-order ids (5 before 3)
        // must fall back to the order-vector walk so FCFS is preserved.
        for ids in [vec![1u64, 2, 3, 4], vec![5u64, 3, 9, 1]] {
            let mut pool = RequestPool::new(1024);
            for &id in &ids {
                pool.add(id, 20 + id as usize, 4);
            }
            // Move the first arrival into decode so the view has both
            // waiting and decodable entries.
            let first = ids[0];
            let plan = BatchPlan {
                prefill: vec![chunk(first, 20 + first as usize, 0, true)],
                decode: vec![],
            };
            pool.commit(&plan);
            pool.complete(&plan);
            let v = view(&pool, 1000);
            let decodable: Vec<u64> = v.decodable.iter().map(|d| d.seq).collect();
            assert_eq!(decodable, vec![first], "ids {ids:?}");
            assert_eq!(v.total_decode_seqs, 1);
            assert_eq!(v.in_flight_seqs, 0);
            // FCFS: waiting is in arrival order, not id order.
            let got: Vec<u64> = v.waiting.iter().map(|w| w.seq).collect();
            assert_eq!(got, ids[1..].to_vec(), "arrival order lost");
        }
    }

    #[test]
    fn unfinished_counter_tracks_the_full_scan() {
        let mut pool = RequestPool::new(1024);
        for id in 0..5u64 {
            pool.add(id, 8, 1);
        }
        assert_eq!(pool.unfinished_count(), 5);
        // Finishing a request (prefill emits its only token) decrements.
        let plan = BatchPlan { prefill: vec![chunk(0, 8, 0, true)], decode: vec![] };
        pool.commit(&plan);
        let out = pool.complete(&plan);
        assert_eq!(out.finished, vec![0]);
        assert_eq!(pool.unfinished_count(), 4);
        pool.abort(4);
        assert_eq!(pool.unfinished_count(), 3);
        // The counter agrees with a full scan.
        let scanned = pool.seqs.values().filter(|s| !s.is_finished()).count();
        assert_eq!(scanned, 3);
    }

    #[test]
    fn policies_drain_the_pool_and_emit_every_token() {
        let expected: usize = (0..20u64).map(|id| 1 + (id as usize * 7) % 30).sum();
        let (_, tokens) = drive_to_completion(&SarathiServe::default());
        assert_eq!(tokens, expected);
        let (_, tokens) = drive_to_completion(&TokenThrottle::default());
        assert_eq!(tokens, expected);
    }
}
