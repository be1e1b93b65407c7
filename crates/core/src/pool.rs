//! The global request pool shared by the scheduler and the execution engine.
//!
//! [`RequestPool`] owns every live [`Sequence`] and enforces the invariants
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
//! The scheduler reads the pool once per micro-batch, so its state
//! collection must stay light (§3.4). Sequences live in a slab: a `Vec` of
//! slots plus a free list. Views hand out each sequence's [`SeqSlot`],
//! plans carry it, and `commit`, `complete` and `uncommit` index the slab
//! directly; the id→slot map is consulted only at the API boundary
//! (`add`, `add_decoding`, `abort`, `seq`, `slot`). Preemption victims and
//! finished sequences come back with their slots too, so the KV manager
//! and the auditor, which key their tables by the same slot, need no id
//! lookup either. The live sequences form a
//! doubly-linked list through their slots in arrival (FCFS) order, and a
//! sequence leaves the pool the moment it finishes, so a view walks live
//! sequences only, and victim searches walk the same list from its newest
//! end. The decode and in-flight counts are kept on every phase change.
//!
//! The pool is deliberately independent of clocks and hardware: the
//! discrete-event simulator drives it with virtual time, the threaded
//! runtime with wall time.

use std::collections::BTreeMap;

use gllm_units::Tokens;

use crate::plan::{BatchPlan, SeqSlot};
use crate::policy::{DecodableSeq, ScheduleView, WaitingSeq};
use crate::sequence::{Phase, Sequence};

#[cfg(test)]
mod oracle;

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
    /// Sequences that finished, with the slot each held (it names their
    /// KV table, which can now be freed).
    pub finished: Vec<(u64, SeqSlot)>,
}

/// The end of the arrival-order list.
const NIL: u32 = u32::MAX;

/// An occupied slab slot: a live sequence and its arrival-order neighbours.
#[derive(Debug, Clone)]
struct Entry {
    seq: Sequence,
    /// The previous (older) live sequence's slot, or `NIL`.
    prev: u32,
    /// The next (newer) live sequence's slot, or `NIL`.
    next: u32,
}

/// The global sequence pool.
#[derive(Debug, Clone, Default)]
pub struct RequestPool {
    /// Live sequences by slot; `None` marks a free slot.
    slab: Vec<Option<Entry>>,
    /// Free slots, reused last-freed first.
    free: Vec<u32>,
    /// Id → slot of every live sequence.
    ids: BTreeMap<u64, u32>,
    /// Oldest live sequence (`NIL` when empty).
    head: u32,
    /// Newest live sequence (`NIL` when empty).
    tail: u32,
    max_seqs_per_batch: usize,
    /// Chunked pipeline parallelism: allow a sequence's next prefill chunk
    /// to be scheduled while earlier chunks are still in flight in later
    /// pipeline stages.
    cpp: bool,
    /// Live sequences in the decode phase (the paper's `#RD`).
    decoding: usize,
    /// Live sequences inside at least one in-flight micro-batch.
    in_flight: usize,
}

impl RequestPool {
    /// A pool with the engine's per-batch sequence cap (vLLM default 1024).
    pub fn new(max_seqs_per_batch: usize) -> Self {
        Self {
            head: NIL,
            tail: NIL,
            max_seqs_per_batch,
            ..Self::default()
        }
    }

    /// Enable chunked pipeline parallelism (intra-request chunk overlap,
    /// the CPP optimisation the paper integrates in §3.4).
    pub fn with_cpp(mut self, cpp: bool) -> Self {
        self.cpp = cpp;
        self
    }

    /// Admit a new request. Panics if `id` is already live.
    pub fn add(&mut self, id: u64, prompt_len: usize, max_output: usize) -> SeqSlot {
        self.insert(Sequence::new(id, prompt_len, max_output))
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
    ) -> SeqSlot {
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
        self.insert(s)
    }

    /// Borrow a live sequence.
    pub fn seq(&self, id: u64) -> Option<&Sequence> {
        self.ids.get(&id).and_then(|&slot| self.get(slot))
    }

    /// The slot of the live sequence `id`.
    pub fn slot(&self, id: u64) -> Option<SeqSlot> {
        self.ids.get(&id).map(|&slot| SeqSlot::new(slot))
    }

    /// Borrow the live sequence `id` through its slot, or `None` when the
    /// slot no longer holds it.
    pub fn seq_at(&self, slot: SeqSlot, id: u64) -> Option<&Sequence> {
        self.get(slot.get()).filter(|s| s.id == id)
    }

    /// Number of unfinished sequences. Finished sequences leave the pool,
    /// so this is the number of live ones.
    pub fn unfinished_count(&self) -> usize {
        self.ids.len()
    }

    /// Whether any sequence still needs work (including in-flight ones).
    pub fn has_work(&self) -> bool {
        !self.ids.is_empty()
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
        let mut waiting = Vec::with_capacity(self.ids.len() - self.decoding);
        let mut decodable = Vec::with_capacity(self.decoding);
        let mut cur = self.head;
        while let Some(e) = self.entry(cur) {
            let s = &e.seq;
            let slot = SeqSlot::new(cur);
            match s.phase {
                Phase::Waiting if s.prefill_schedulable(self.cpp) => waiting.push(WaitingSeq {
                    seq: s.id,
                    slot,
                    remaining_prefill: Tokens(s.remaining_prefill()),
                    context_before: Tokens(s.context_len()),
                }),
                Phase::Decoding if !s.is_in_flight() => decodable.push(DecodableSeq {
                    seq: s.id,
                    slot,
                    context_before: Tokens(s.context_len()),
                }),
                _ => {}
            }
            cur = e.next;
        }
        ScheduleView {
            waiting,
            decodable,
            total_decode_seqs: self.decoding,
            kv_free_rate,
            kv_free_tokens,
            block_size,
            in_flight_seqs: self.in_flight,
            pipeline_depth,
            max_seqs_per_batch: self.max_seqs_per_batch,
        }
    }

    /// Atomically move every sequence in `plan` in-flight. Panics if the
    /// plan is stale (its slot no longer holds the sequence, the sequence
    /// is already in flight, or the chunk does not match the sequence's
    /// committed context) — policies must plan from a fresh view.
    pub fn commit(&mut self, plan: &BatchPlan) {
        for c in &plan.prefill {
            let slot = self.planned(c.slot, c.seq);
            self.update(slot, |s| {
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
            });
        }
        for d in &plan.decode {
            let slot = self.planned(d.slot, d.seq);
            self.update(slot, |s| {
                assert_eq!(
                    d.context_before.get(),
                    s.context_len(),
                    "stale decode slot for sequence {}",
                    d.seq
                );
                s.commit_decode();
            });
        }
    }

    /// Apply the completion of a committed batch, emitting tokens and
    /// collecting finished sequences, which leave the pool.
    pub fn complete(&mut self, plan: &BatchPlan) -> BatchOutcome {
        let mut outcome = BatchOutcome::default();
        for c in &plan.prefill {
            let slot = self.planned(c.slot, c.seq);
            if self.update(slot, |s| s.complete_prefill(c.completes_prompt)) {
                self.emit(slot, &mut outcome);
            }
        }
        for d in &plan.decode {
            let slot = self.planned(d.slot, d.seq);
            if self.update(slot, Sequence::complete_decode) {
                self.emit(slot, &mut outcome);
            }
        }
        outcome
    }

    /// Roll back a committed plan whose micro-batch will never complete
    /// (the pipeline stage executing it died). Every sequence the plan
    /// moved in-flight returns to its pre-commit state: prefill chunks
    /// give back their KV token accounting, decode slots their appended
    /// slot. Sequences the pool no longer holds are skipped — a recovery
    /// sweep must not panic on a request that was aborted in between.
    pub fn uncommit(&mut self, plan: &BatchPlan) {
        for c in &plan.prefill {
            if self.seq_at(c.slot, c.seq).is_some() {
                self.update(c.slot.get(), |s| s.uncommit_prefill(c.tokens.get()));
            }
        }
        for d in &plan.decode {
            if self.seq_at(d.slot, d.seq).is_some() {
                self.update(d.slot.get(), Sequence::uncommit_decode);
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
        let mut cur = self.head;
        while let Some(e) = self.entry(cur) {
            let (slot, s) = (cur, e.seq);
            cur = e.next;
            if !s.is_in_flight() && s.context_len() > 0 {
                self.update(slot, Sequence::reset_for_recompute);
                reset.push(s.id);
            }
        }
        reset.sort_unstable();
        reset
    }

    /// Pick and reset a preemption victim: the **latest-arrival** sequence
    /// that is decoding, not in flight, and not in `exclude` (the engine
    /// passes the sequences already placed in the micro-batch being
    /// formed) — vLLM preempts the lowest priority first. Returns its id,
    /// its slot and the KV tokens it held, or `None` if nothing is
    /// evictable.
    pub fn preempt_latest_excluding(&mut self, exclude: &[u64]) -> Option<(u64, SeqSlot, Tokens)> {
        self.preempt_newest(|s| {
            s.phase == Phase::Decoding && !s.is_in_flight() && !exclude.contains(&s.id)
        })
    }

    /// Stall breaker: when nothing is in flight and no plan can be formed
    /// (e.g. partially-prefilled sequences hold the whole KV cache), evict
    /// the **latest-arrival** waiting sequence that already committed some
    /// context, forcing it to recompute later. Returns its id, its slot and
    /// the KV tokens it held.
    pub fn preempt_stalled_waiting(&mut self) -> Option<(u64, SeqSlot, Tokens)> {
        self.preempt_newest(|s| {
            s.phase == Phase::Waiting && !s.is_in_flight() && s.context_len() > 0
        })
    }

    /// Abort a request that can never be served (e.g. its prompt exceeds
    /// the cluster's entire KV capacity). The sequence is dropped without
    /// emitting tokens; it must be live and not in flight.
    pub fn abort(&mut self, id: u64) {
        // lint:allow(panic-freedom): documented contract — abort() is only called with live ids
        let &slot = self.ids.get(&id).expect("aborting unknown sequence");
        assert!(
            self.get(slot).is_some_and(|s| !s.is_in_flight()),
            "cannot abort an in-flight sequence"
        );
        self.remove(slot);
    }

    fn entry(&self, slot: u32) -> Option<&Entry> {
        self.slab.get(slot as usize).and_then(Option::as_ref)
    }

    fn get(&self, slot: u32) -> Option<&Sequence> {
        self.entry(slot).map(|e| &e.seq)
    }

    /// The slab index of a planned sequence. Panics on a stale plan: the
    /// slot is free or holds another sequence.
    fn planned(&self, slot: SeqSlot, id: u64) -> u32 {
        assert!(
            self.seq_at(slot, id).is_some(),
            "unknown sequence {id} in plan"
        );
        slot.get()
    }

    /// Apply `f` to the sequence in `slot` (which must be occupied),
    /// keeping the decode and in-flight counts in step with it.
    fn update<R>(&mut self, slot: u32, f: impl FnOnce(&mut Sequence) -> R) -> R {
        // lint:allow(panic-freedom): callers pass slots they found occupied
        let s = &mut self.slab[slot as usize].as_mut().expect("occupied slot").seq;
        let (was_decoding, was_in_flight) = (s.phase == Phase::Decoding, s.is_in_flight());
        let r = f(s);
        let (decoding, in_flight) = (s.phase == Phase::Decoding, s.is_in_flight());
        self.decoding = self.decoding + usize::from(decoding) - usize::from(was_decoding);
        self.in_flight = self.in_flight + usize::from(in_flight) - usize::from(was_in_flight);
        r
    }

    /// Record the token the sequence in `slot` just emitted, removing the
    /// sequence if that token finished it.
    fn emit(&mut self, slot: u32, outcome: &mut BatchOutcome) {
        let Some(s) = self.get(slot) else { return };
        let (seq, finished) = (s.id, s.is_finished());
        outcome.emitted.push(EmittedToken { seq, finished });
        if finished {
            outcome.finished.push((seq, SeqSlot::new(slot)));
            self.remove(slot);
        }
    }

    /// Reset the newest live sequence that satisfies `victim` for
    /// recomputation. Returns its id, its slot and the KV tokens it held.
    fn preempt_newest(&mut self, victim: impl Fn(&Sequence) -> bool) -> Option<(u64, SeqSlot, Tokens)> {
        let mut cur = self.tail;
        while let Some(e) = self.entry(cur) {
            if victim(&e.seq) {
                let (id, held) = (e.seq.id, Tokens(e.seq.context_len()));
                self.update(cur, Sequence::reset_for_recompute);
                return Some((id, SeqSlot::new(cur), held));
            }
            cur = e.prev;
        }
        None
    }

    /// Place `s` in a free slot at the newest end of the arrival order.
    fn insert(&mut self, s: Sequence) -> SeqSlot {
        assert!(!self.ids.contains_key(&s.id), "duplicate request id {}", s.id);
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.slab.push(None);
                // lint:allow(panic-freedom): more than u32::MAX - 1 live sequences cannot be held
                u32::try_from(self.slab.len() - 1).ok().filter(|&i| i != NIL).expect("slab full")
            }
        };
        self.ids.insert(s.id, slot);
        self.decoding += usize::from(s.phase == Phase::Decoding);
        self.slab[slot as usize] = Some(Entry { seq: s, prev: self.tail, next: NIL });
        match self.slab.get_mut(self.tail as usize).and_then(Option::as_mut) {
            Some(tail) => tail.next = slot,
            None => self.head = slot,
        }
        self.tail = slot;
        SeqSlot::new(slot)
    }

    /// Unlink the (not in flight) sequence in `slot` and free the slot.
    fn remove(&mut self, slot: u32) {
        let Some(e) = self.slab.get_mut(slot as usize).and_then(Option::take) else { return };
        debug_assert!(!e.seq.is_in_flight(), "removing an in-flight sequence");
        self.ids.remove(&e.seq.id);
        self.decoding -= usize::from(e.seq.phase == Phase::Decoding);
        match self.slab.get_mut(e.prev as usize).and_then(Option::as_mut) {
            Some(prev) => prev.next = e.next,
            None => self.head = e.next,
        }
        match self.slab.get_mut(e.next as usize).and_then(Option::as_mut) {
            Some(next) => next.prev = e.prev,
            None => self.tail = e.prev,
        }
        self.free.push(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{DecodeSlot, PrefillChunk};
    use crate::policy::SchedulePolicy;
    use crate::sarathi::SarathiServe;
    use crate::throttle::TokenThrottle;

    fn slot_of(pool: &RequestPool, seq: u64) -> SeqSlot {
        pool.slot(seq).expect("live sequence")
    }

    fn chunk(pool: &RequestPool, seq: u64, tokens: usize, before: usize, done: bool) -> PrefillChunk {
        PrefillChunk {
            seq,
            slot: slot_of(pool, seq),
            tokens: Tokens(tokens),
            context_before: Tokens(before),
            completes_prompt: done,
        }
    }

    fn slot(pool: &RequestPool, seq: u64, before: usize) -> DecodeSlot {
        DecodeSlot { seq, slot: slot_of(pool, seq), context_before: Tokens(before) }
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
        let plan = BatchPlan { prefill: vec![chunk(&pool, 2, 50, 0, true)], decode: vec![] };
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
        let p1 = BatchPlan { prefill: vec![chunk(&pool, 1, 10, 0, true)], decode: vec![] };
        pool.commit(&p1);
        pool.complete(&p1);
        // Now decoding; put its decode step in flight.
        let p2 = BatchPlan { prefill: vec![], decode: vec![slot(&pool, 1, 10)] };
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
        let p1 = BatchPlan { prefill: vec![chunk(&pool, 1, 10, 0, true)], decode: vec![] };
        pool.commit(&p1);
        let o1 = pool.complete(&p1);
        assert_eq!(o1.emitted, vec![EmittedToken { seq: 1, finished: false }]);
        let p2 = BatchPlan { prefill: vec![], decode: vec![slot(&pool, 1, 10)] };
        pool.commit(&p2);
        let o2 = pool.complete(&p2);
        assert_eq!(o2.emitted, vec![EmittedToken { seq: 1, finished: true }]);
        assert_eq!(o2.finished, vec![(1, p2.decode[0].slot)]);
        assert!(!pool.has_work());
        assert!(pool.seq(1).is_none(), "a finished sequence leaves the pool");
    }

    #[test]
    fn partial_chunk_emits_nothing() {
        let mut pool = RequestPool::new(1024);
        pool.add(1, 100, 2);
        let p = BatchPlan { prefill: vec![chunk(&pool, 1, 40, 0, false)], decode: vec![] };
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
        let p = BatchPlan { prefill: vec![chunk(&pool, 1, 40, 10, false)], decode: vec![] };
        pool.commit(&p);
    }

    #[test]
    #[should_panic(expected = "unknown sequence 1 in plan")]
    fn plan_naming_a_reused_slot_is_rejected() {
        let mut pool = RequestPool::new(1024);
        pool.add(1, 4, 2);
        let prefill = BatchPlan { prefill: vec![chunk(&pool, 1, 4, 0, true)], decode: vec![] };
        pool.commit(&prefill);
        pool.complete(&prefill);
        let decode = BatchPlan { prefill: vec![], decode: vec![slot(&pool, 1, 4)] };
        pool.commit(&decode);
        pool.complete(&decode);
        // Seq 1 finished and its slot went to seq 2: a plan still naming
        // seq 1 there is stale.
        assert_eq!(pool.add(2, 4, 1), decode.decode[0].slot);
        pool.commit(&decode);
    }

    #[test]
    fn preempt_latest_picks_newest_decoder() {
        let mut pool = RequestPool::new(1024);
        for id in [1, 2] {
            pool.add(id, 10, 5);
            let p = BatchPlan { prefill: vec![chunk(&pool, id, 10, 0, true)], decode: vec![] };
            pool.commit(&p);
            pool.complete(&p);
        }
        let (victim, victim_slot, held) = pool.preempt_latest_excluding(&[]).unwrap();
        assert_eq!(victim, 2);
        assert_eq!(victim_slot, slot_of(&pool, 2));
        assert_eq!(held, Tokens(10));
        let v = view(&pool, 1000);
        assert_eq!(v.decodable.len(), 1);
        assert_eq!(v.waiting.len(), 1);
        assert_eq!(v.waiting[0].seq, 2);
        // Recompute includes the generated token.
        assert_eq!(v.waiting[0].remaining_prefill, Tokens(11));
        assert_eq!(pool.seq(2).unwrap().preemptions, 1);
        // An excluded newest decoder passes the choice to the next one.
        let (victim, _, _) = pool.preempt_latest_excluding(&[2]).unwrap();
        assert_eq!(victim, 1);
    }

    #[test]
    fn cpp_pool_overlaps_prefill_chunks_and_emits_once() {
        let mut pool = RequestPool::new(1024).with_cpp(true);
        pool.add(1, 100, 3);
        let p1 = BatchPlan { prefill: vec![chunk(&pool, 1, 60, 0, false)], decode: vec![] };
        pool.commit(&p1);
        // With CPP the remainder is schedulable while chunk 1 is in flight.
        let v = view(&pool, 1000);
        assert_eq!(v.waiting.len(), 1);
        assert_eq!(v.waiting[0].remaining_prefill, Tokens(40));
        assert_eq!(v.waiting[0].context_before, Tokens(60));
        let p2 = BatchPlan { prefill: vec![chunk(&pool, 1, 40, 60, true)], decode: vec![] };
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
        let p1 = BatchPlan { prefill: vec![chunk(&pool, 1, 60, 0, false)], decode: vec![] };
        pool.commit(&p1);
        assert!(view(&pool, 1000).waiting.is_empty());
    }

    #[test]
    fn uncommit_restores_the_pre_commit_state() {
        let mut pool = RequestPool::new(1024);
        pool.add(1, 100, 5);
        pool.add(2, 10, 5);
        // Seq 2 reaches decode; seq 1 is mid-prefill.
        let warm = BatchPlan { prefill: vec![chunk(&pool, 2, 10, 0, true)], decode: vec![] };
        pool.commit(&warm);
        pool.complete(&warm);
        let lost = BatchPlan {
            prefill: vec![chunk(&pool, 1, 40, 0, false)],
            decode: vec![slot(&pool, 2, 10)],
        };
        pool.commit(&lost);
        assert!(pool.seq(1).unwrap().is_in_flight());
        assert!(pool.seq(2).unwrap().is_in_flight());
        assert_eq!(view(&pool, 1000).in_flight_seqs, 2);
        pool.uncommit(&lost);
        assert_eq!(view(&pool, 1000).in_flight_seqs, 0);
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
        // Only seq 1 exists; the rollback must not panic on seq 9, whether
        // its slot is free or held by seq 1.
        let unknown = |slot| PrefillChunk { seq: 9, slot, ..chunk(&pool, 1, 4, 0, false) };
        let plan = BatchPlan { prefill: vec![unknown(SeqSlot::new(7)), unknown(slot_of(&pool, 1))], decode: vec![] };
        pool.uncommit(&plan);
        assert_eq!(pool.seq(1).unwrap().prefilled, 0);
    }

    #[test]
    fn preempt_all_live_resets_everything_with_context() {
        let mut pool = RequestPool::new(1024);
        pool.add(1, 10, 5); // will be decoding with 10 KV
        pool.add(2, 80, 5); // will be mid-prefill with 30 KV
        pool.add(3, 20, 5); // never scheduled: no context, left alone
        let p1 = BatchPlan { prefill: vec![chunk(&pool, 1, 10, 0, true)], decode: vec![] };
        pool.commit(&p1);
        pool.complete(&p1);
        let p2 = BatchPlan { prefill: vec![chunk(&pool, 2, 30, 0, false)], decode: vec![] };
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
        assert_eq!(view(&pool, 1000).total_decode_seqs, 0);
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
        let p = BatchPlan { prefill: vec![chunk(&pool, 1, 10, 0, true)], decode: vec![] };
        pool.commit(&p);
        pool.complete(&p);
        let d = BatchPlan { prefill: vec![], decode: vec![slot(&pool, 1, 10)] };
        pool.commit(&d);
        assert!(pool.preempt_latest_excluding(&[]).is_none());
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
        // The view follows arrival order, not id order: out-of-order ids
        // (5 before 3), as the runtime's clients may submit, keep FCFS.
        for ids in [vec![1u64, 2, 3, 4], vec![5u64, 3, 9, 1]] {
            let mut pool = RequestPool::new(1024);
            for &id in &ids {
                pool.add(id, 20 + id as usize, 4);
            }
            // Move the first arrival into decode so the view has both
            // waiting and decodable entries.
            let first = ids[0];
            let plan = BatchPlan {
                prefill: vec![chunk(&pool, first, 20 + first as usize, 0, true)],
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
        let plan = BatchPlan { prefill: vec![chunk(&pool, 0, 8, 0, true)], decode: vec![] };
        pool.commit(&plan);
        let out = pool.complete(&plan);
        assert_eq!(out.finished, vec![(0, plan.prefill[0].slot)]);
        assert_eq!(pool.unfinished_count(), 4);
        pool.abort(4);
        assert_eq!(pool.unfinished_count(), 3);
        // The counter agrees with a full scan of the slab.
        let scanned = pool.slab.iter().flatten().filter(|e| !e.seq.is_finished()).count();
        assert_eq!(scanned, 3);
        // Freed slots are reused before the slab grows.
        pool.add(7, 8, 1);
        pool.add(8, 8, 1);
        assert_eq!(pool.slab.len(), 5);
        let order: Vec<u64> = view(&pool, 1000).waiting.iter().map(|w| w.seq).collect();
        assert_eq!(order, vec![1, 2, 3, 7, 8], "reused slots join at the newest end");
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

/// The slab pool against the map-based pool it replaced ([`oracle`]):
/// random operation sequences must leave both with equal views, outcomes,
/// victims, reset lists and unfinished counts after every step.
#[cfg(test)]
mod differential {
    use proptest::prelude::*;

    use super::oracle;
    use super::*;
    use crate::policy::{carve_prefill_chunks, take_decodes};

    /// One operation: a kind, an id (or pick) seed and two sizes.
    type Op = (u8, u64, usize, usize);

    fn ops() -> impl Strategy<Value = (u8, Vec<Op>)> {
        (0u8..2, proptest::collection::vec((0u8..16, 0u64..1 << 20, 1usize..64, 1usize..12), 1..160))
    }

    /// A view with every slot cleared: the oracle has no slots.
    fn unslotted(mut v: ScheduleView) -> ScheduleView {
        v.waiting.iter_mut().for_each(|w| w.slot = SeqSlot::default());
        v.decodable.iter_mut().for_each(|d| d.slot = SeqSlot::default());
        v
    }

    /// An outcome with every finished slot cleared.
    fn unslotted_outcome(mut o: BatchOutcome) -> BatchOutcome {
        o.finished.iter_mut().for_each(|f| f.1 = SeqSlot::default());
        o
    }

    /// A victim with its slot dropped.
    fn unslotted_victim(v: Option<(u64, SeqSlot, Tokens)>) -> Option<(u64, Tokens)> {
        v.map(|(id, _, held)| (id, held))
    }

    fn view_of(pool: &RequestPool) -> ScheduleView {
        pool.view(0.5, Tokens(1 << 20), Tokens(16), 3)
    }

    fn oracle_view(pool: &oracle::RequestPool) -> ScheduleView {
        pool.view(0.5, Tokens(1 << 20), Tokens(16), 3)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn slab_pool_matches_the_map_pool((cpp, ops) in ops()) {
            let cpp = cpp == 1;
            let mut pool = RequestPool::new(8).with_cpp(cpp);
            let mut reference = oracle::RequestPool::new(8).with_cpp(cpp);
            // Plans in flight, oldest first; ids ever used; ids live now.
            let mut in_flight: Vec<BatchPlan> = Vec::new();
            let mut used = std::collections::BTreeSet::new();
            let mut live: Vec<u64> = Vec::new();
            let mut next_id = 0u64;
            for (kind, pick, a, b) in ops {
                match kind {
                    // Arrivals: in id order (the sim) or any unused id
                    // (the runtime's clients).
                    0..=2 => {
                        let id = if kind == 0 { pick } else { next_id };
                        if used.insert(id) {
                            next_id = next_id.max(id) + 1;
                            pool.add(id, a, b);
                            reference.add(id, a, b);
                            live.push(id);
                        }
                    }
                    3 => {
                        let id = pick | 1 << 40;
                        let context = a + b;
                        if b >= 2 && used.insert(id) {
                            pool.add_decoding(id, context, b - 1, b + 1);
                            reference.add_decoding(id, context, b - 1, b + 1);
                            live.push(id);
                        }
                    }
                    // Plan from the slab's view and commit to both.
                    4..=7 if in_flight.len() < 4 => {
                        let v = view_of(&pool);
                        let plan = BatchPlan {
                            prefill: carve_prefill_chunks(&v.waiting, Tokens(a * 3), b, Tokens(usize::MAX)),
                            decode: take_decodes(&v.decodable, b),
                        };
                        if !plan.is_empty() {
                            pool.commit(&plan);
                            reference.commit(&plan);
                            in_flight.push(plan);
                        }
                    }
                    8..=10 if !in_flight.is_empty() => {
                        let plan = in_flight.remove(0);
                        let outcome = pool.complete(&plan);
                        prop_assert_eq!(&unslotted_outcome(outcome.clone()), &reference.complete(&plan));
                        live.retain(|id| !outcome.finished.iter().any(|&(f, _)| f == *id));
                    }
                    // The newest plan's stage died: roll it back.
                    11 => {
                        if let Some(plan) = in_flight.pop() {
                            pool.uncommit(&plan);
                            reference.uncommit(&plan);
                        }
                    }
                    12 => {
                        let exclude: Vec<u64> = live.iter().copied().filter(|id| id % 3 == pick % 3).collect();
                        prop_assert_eq!(
                            unslotted_victim(pool.preempt_latest_excluding(&exclude)),
                            reference.preempt_latest_excluding(&exclude)
                        );
                    }
                    13 => {
                        prop_assert_eq!(
                            unslotted_victim(pool.preempt_stalled_waiting()),
                            reference.preempt_stalled_waiting()
                        );
                    }
                    14 => prop_assert_eq!(pool.preempt_all_live(), reference.preempt_all_live()),
                    15 if !live.is_empty() => {
                        let id = live[pick as usize % live.len()];
                        if !pool.seq(id).is_some_and(Sequence::is_in_flight) {
                            pool.abort(id);
                            reference.abort(id);
                            live.retain(|&x| x != id);
                        }
                    }
                    _ => {}
                }
                prop_assert_eq!(unslotted(view_of(&pool)), oracle_view(&reference));
                prop_assert_eq!(pool.unfinished_count(), reference.unfinished_count());
                prop_assert_eq!(pool.has_work(), reference.has_work());
                for &id in &live {
                    prop_assert_eq!(pool.seq(id), reference.seq(id));
                }
            }
        }
    }
}
