//! The scheduling step every execution plane runs.
//!
//! gLLM's driver worker runs the global scheduler once per micro-batch
//! (§3.3). The simulator, the disaggregated simulator and the runtime
//! driver all call this one [`SchedulerStep`], so the scheduler being
//! measured is the scheduler being verified. A failed KV free or eviction
//! is reported to the auditor as a runtime-integrity violation, never a
//! panic.

use std::collections::BTreeMap;
use std::fmt::Display;

use gllm_core::{admit, BatchOutcome, BatchPlan, RequestPool, SchedulePolicy, SeqSlot};
use gllm_kvcache::KvCacheManager;

use crate::audit::{AuditReport, InvariantAuditor, KvObservation, PlanCaps};
use crate::recorder::MetricsRecorder;
use crate::trace::PipelineTrace;

/// A policy's plan before admission, with what the auditor needs to judge
/// it. Produced by [`SchedulerStep::propose`], consumed by
/// [`SchedulerStep::schedule`].
#[derive(Debug, Clone)]
pub struct Proposal {
    plan: BatchPlan,
    /// Only when auditing: the plan as proposed, the policy's declared
    /// caps and the KV occupancy it was planned against.
    audit: Option<(BatchPlan, Option<PlanCaps>, KvObservation)>,
}

impl Proposal {
    /// The plan as the policy proposed it.
    pub fn plan(&self) -> &BatchPlan {
        &self.plan
    }
}

/// What one [`SchedulerStep::schedule`] call did.
#[derive(Debug)]
pub enum Scheduled<T, E> {
    /// A batch was committed under `id` and is now in flight; `prepared`
    /// is what the caller's `prepare` built from the committed plan.
    Batch { id: u64, prepared: T },
    /// Nothing could be placed, so the stall breaker preempted a waiting
    /// sequence to free KV for the head of the line: schedule again.
    Unstalled,
    /// Nothing is schedulable right now.
    Idle,
    /// `prepare` rejected the committed plan: the commit was rolled back
    /// and the error reported to the auditor.
    Rejected(E),
}

/// One scheduler: its request pool, KV cache and observers, and the
/// micro-batches it has in flight. The pool, cache and observers are
/// public for what a plane does outside the step: the disaggregated
/// simulator's KV transfer, the driver's failure handling and recovery.
#[derive(Debug)]
pub struct SchedulerStep {
    /// Every live request.
    pub pool: RequestPool,
    /// The paged KV cache.
    pub kv: KvCacheManager,
    /// The invariant auditor, when auditing.
    pub auditor: Option<InvariantAuditor>,
    /// The per-batch event log (drops events unless recording).
    pub trace: PipelineTrace,
    /// The scheduler's `#PP_depth`: at most this many batches in flight.
    depth: usize,
    /// Committed plans by batch id, awaiting completion.
    in_flight: BTreeMap<u64, BatchPlan>,
    next_batch: u64,
    preemptions: u64,
}

impl SchedulerStep {
    /// A step over `pool` and `kv` for a pipeline of `depth` stages, with
    /// the invariant auditor on when `audit` and the pipeline trace
    /// recording when `record_trace`.
    pub fn new(
        pool: RequestPool,
        kv: KvCacheManager,
        depth: usize,
        audit: bool,
        record_trace: bool,
    ) -> Self {
        let auditor =
            audit.then(|| InvariantAuditor::new(kv.stats().total_blocks, kv.block_size(), depth));
        Self {
            pool,
            kv,
            auditor,
            trace: PipelineTrace::new(record_trace),
            depth,
            in_flight: BTreeMap::new(),
            next_batch: 0,
            preemptions: 0,
        }
    }

    /// Whether a request of `prompt_len + max_new` tokens, plus one block
    /// of slack, fits the whole cache. Overflowing sizes never fit.
    pub fn fits(&self, prompt_len: usize, max_new: usize) -> bool {
        prompt_len
            .checked_add(max_new)
            .and_then(|t| t.checked_add(self.kv.block_size().get()))
            .is_some_and(|t| t <= self.kv.token_capacity().get())
    }

    /// A request arrives. An id that is already live is rejected unseen:
    /// the auditor's record of it belongs to the live request. Empty
    /// requests and ones that can never fit are rejected (the auditor sees
    /// them arrive and abort); the rest join the pool. Returns whether the
    /// request was admitted.
    pub fn arrive(&mut self, id: u64, prompt_len: usize, max_new: usize) -> bool {
        if self.pool.slot(id).is_some() {
            return false;
        }
        if let Some(a) = self.auditor.as_mut() {
            a.on_arrival(id);
        }
        if prompt_len == 0 || max_new == 0 || !self.fits(prompt_len, max_new) {
            if let Some(a) = self.auditor.as_mut() {
                a.on_abort(id);
            }
            return false;
        }
        self.pool.add(id, prompt_len, max_new);
        true
    }

    /// Whether `#PP_depth` batches are already in flight.
    pub fn is_full(&self) -> bool {
        self.in_flight.len() >= self.depth
    }

    /// Let `policy` plan from a fresh view of the pool and cache.
    pub fn propose(&self, policy: &dyn SchedulePolicy) -> Proposal {
        let block_size = self.kv.block_size();
        let view = self.pool.view(
            self.kv.free_rate(),
            self.kv.free_blocks().to_tokens(block_size),
            block_size,
            self.depth,
        );
        let plan = policy.plan(&view);
        let audit = self.auditor.as_ref().map(|_| {
            let caps = policy
                .budget_caps(&view)
                .map(|(prefill_tokens, decode_seqs)| PlanCaps {
                    prefill_tokens,
                    decode_seqs,
                });
            (plan.clone(), caps, kv_obs(&self.kv))
        });
        Proposal { plan, audit }
    }

    /// Admit `proposal` against the KV cache (recording every preemption
    /// in `rec`, the trace and the auditor), commit what fits, and hand
    /// the committed plan to `prepare`, which turns it into the caller's
    /// batch. When nothing fits and nothing is in flight, the stall
    /// breaker preempts a waiting sequence instead.
    pub fn schedule<T, E: Display>(
        &mut self,
        proposal: Proposal,
        rec: &mut MetricsRecorder,
        now: f64,
        prepare: impl FnOnce(u64, &BatchPlan, &RequestPool, &KvCacheManager) -> Result<T, E>,
    ) -> Scheduled<T, E> {
        let admission = admit(proposal.plan, &mut self.pool, &mut self.kv);
        for &(victim, slot) in &admission.preempted {
            self.record_preemption(rec, now, victim, slot);
        }
        let plan = admission.plan;
        if plan.is_empty() {
            if !self.in_flight.is_empty() || !self.pool.has_work() {
                return Scheduled::Idle;
            }
            // Bounded: each eviction frees a context of > 0 tokens.
            let Some((victim, slot, _)) = self.pool.preempt_stalled_waiting() else {
                return Scheduled::Idle;
            };
            if self.kv.contains(slot, victim) {
                if let Err(e) = self.kv.evict(slot, victim) {
                    self.integrity_failure(
                        now,
                        None,
                        format!("stall-breaker eviction of seq {victim}: {e}"),
                    );
                }
            }
            self.record_preemption(rec, now, victim, slot);
            return Scheduled::Unstalled;
        }
        self.pool.commit(&plan);
        let id = self.next_batch;
        let prepared = match prepare(id, &plan, &self.pool, &self.kv) {
            Ok(prepared) => prepared,
            Err(e) => {
                self.pool.uncommit(&plan);
                self.integrity_failure(now, Some(id), e.to_string());
                return Scheduled::Rejected(e);
            }
        };
        self.next_batch += 1;
        if let (Some(a), Some((proposed, caps, before))) = (self.auditor.as_mut(), proposal.audit) {
            let after = kv_obs(&self.kv);
            a.on_schedule(now, id, &proposed, &plan, caps, before, after);
        }
        self.trace.schedule(
            now,
            id,
            plan.prefill_tokens().get(),
            plan.decode_tokens().get(),
            plan.num_seqs(),
        );
        self.in_flight.insert(id, plan);
        Scheduled::Batch { id, prepared }
    }

    /// Batch `batch` left the last stage: apply it to the pool and free
    /// the KV of every sequence it finished. `None` when `batch` is not in
    /// flight (never scheduled, or rolled back by
    /// [`Self::abandon_in_flight`]).
    pub fn complete(&mut self, now: f64, batch: u64) -> Option<BatchOutcome> {
        let plan = self.in_flight.remove(&batch)?;
        let outcome = self.pool.complete(&plan);
        for &(seq, slot) in &outcome.finished {
            if let Err(e) = self.kv.free(slot, seq) {
                self.integrity_failure(
                    now,
                    Some(batch),
                    format!("freeing finished seq {seq}: {e}"),
                );
            }
        }
        self.trace
            .complete(now, batch, outcome.emitted.len(), outcome.finished.len());
        if let Some(a) = self.auditor.as_mut() {
            a.on_complete(now, batch, &outcome.finished, kv_obs(&self.kv));
        }
        Some(outcome)
    }

    /// Roll back every in-flight batch, oldest first: their completions
    /// will never arrive. Returns how many there were.
    pub fn abandon_in_flight(&mut self) -> usize {
        let lost = std::mem::take(&mut self.in_flight);
        for plan in lost.values() {
            self.pool.uncommit(plan);
        }
        lost.len()
    }

    /// Batches in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Batches scheduled so far.
    pub fn batches(&self) -> u64 {
        self.next_batch
    }

    /// Preemptions (admission evictions and stall breaks) so far.
    pub fn preemptions(&self) -> u64 {
        self.preemptions
    }

    /// End the run: the trace and, when auditing, the audit report (its
    /// leak check runs only when the pool drained).
    pub fn finish(self) -> (PipelineTrace, Option<AuditReport>) {
        let drained = !self.pool.has_work();
        (self.trace, self.auditor.map(|a| a.into_report(drained)))
    }

    fn record_preemption(&mut self, rec: &mut MetricsRecorder, now: f64, victim: u64, slot: SeqSlot) {
        rec.on_preemption(victim);
        self.preemptions += 1;
        self.trace.preempt(now, victim);
        if let Some(a) = self.auditor.as_mut() {
            a.on_evict(slot, victim);
        }
    }

    fn integrity_failure(&mut self, now: f64, batch: Option<u64>, detail: String) {
        if let Some(a) = self.auditor.as_mut() {
            a.on_integrity_failure(now, batch, detail);
        }
    }
}

/// The KV cache's occupancy as the auditor observes it.
fn kv_obs(kv: &KvCacheManager) -> KvObservation {
    let s = kv.stats();
    KvObservation {
        free_blocks: s.free_blocks,
        used_blocks: s.used_blocks,
    }
}

#[cfg(test)]
mod tests {
    use std::convert::Infallible;

    use gllm_core::policy::take_decodes;
    use gllm_core::{Blocks, PrefillChunk, ScheduleView, Tokens};

    use super::*;
    use crate::trace::TraceEventKind;

    /// Prefills waiting sequences in arrival order in chunks of at most
    /// `chunk` tokens, within the free KV tokens, and decodes every
    /// decodable sequence (decodes may overcommit: admission preempts).
    struct Greedy {
        chunk: usize,
    }

    impl SchedulePolicy for Greedy {
        fn plan(&self, view: &ScheduleView) -> BatchPlan {
            let mut free = view.kv_free_tokens;
            let mut prefill = Vec::new();
            for w in &view.waiting {
                let tokens = w.remaining_prefill.min(Tokens(self.chunk)).min(free);
                if tokens.is_zero() {
                    break;
                }
                free -= tokens;
                prefill.push(PrefillChunk {
                    seq: w.seq,
                    slot: w.slot,
                    tokens,
                    context_before: w.context_before,
                    completes_prompt: tokens == w.remaining_prefill,
                });
            }
            let decode = take_decodes(&view.decodable, view.decodable.len());
            BatchPlan { prefill, decode }
        }

        fn name(&self) -> &'static str {
            "greedy"
        }
    }

    /// An audited, traced step over `blocks` KV blocks of 4 tokens.
    fn step(blocks: usize) -> SchedulerStep {
        SchedulerStep::new(
            RequestPool::new(64),
            KvCacheManager::new(Blocks(blocks), Tokens(4)),
            2,
            true,
            true,
        )
    }

    fn arrive(
        step: &mut SchedulerStep,
        rec: &mut MetricsRecorder,
        id: u64,
        prompt: usize,
        max_new: usize,
    ) -> bool {
        rec.on_arrival(id, 0.0, prompt);
        step.arrive(id, prompt, max_new)
    }

    fn schedule(
        step: &mut SchedulerStep,
        rec: &mut MetricsRecorder,
        policy: &Greedy,
    ) -> Scheduled<BatchPlan, Infallible> {
        let proposal = step.propose(policy);
        step.schedule(proposal, rec, 0.0, |_, plan, _, _| Ok(plan.clone()))
    }

    /// Whether `seq` holds a KV table in any slot.
    fn holds_kv(step: &SchedulerStep, seq: u64) -> bool {
        step.kv.live_sequences().iter().any(|&(id, _)| id == seq)
    }

    fn assert_clean(step: SchedulerStep) {
        let (_, audit) = step.finish();
        let audit = audit.expect("auditing on");
        assert!(audit.is_clean(), "{:?}", audit.violations);
    }

    #[test]
    fn stall_breaker_frees_kv_for_the_head_of_the_line() {
        // 32 KV tokens; two 20-token prompts each prefill 16 tokens and
        // together hold the whole cache with nothing in flight.
        let (mut step, mut rec) = (step(8), MetricsRecorder::new());
        let policy = Greedy { chunk: 16 };
        assert!(arrive(&mut step, &mut rec, 1, 20, 2));
        assert!(arrive(&mut step, &mut rec, 2, 20, 2));
        let Scheduled::Batch { id, .. } = schedule(&mut step, &mut rec, &policy) else {
            panic!("first chunks must schedule");
        };
        step.complete(0.0, id).expect("in flight");
        assert!(step.kv.free_blocks().is_zero());

        assert!(matches!(
            schedule(&mut step, &mut rec, &policy),
            Scheduled::Unstalled
        ));
        // The latest arrival gave its KV back and will recompute.
        assert!(!holds_kv(&step, 2));
        assert_eq!(step.kv.free_blocks(), Blocks(4));
        assert_eq!(step.pool.seq(2).expect("live").context_len(), 0);
        assert_eq!(step.preemptions(), 1);
        assert_eq!(rec.timeline(2).expect("arrived").preemptions, 1);

        let Scheduled::Batch { prepared, .. } = schedule(&mut step, &mut rec, &policy) else {
            panic!("the head of the line must progress after the stall break");
        };
        assert_eq!(prepared.prefill.first().map(|c| c.seq), Some(1));
        assert!(prepared.prefill.first().is_some_and(|c| c.completes_prompt));
        assert_clean(step);
    }

    #[test]
    fn preemption_reaches_recorder_trace_and_auditor_once() {
        // 16 KV tokens: two 8-token prompts fill the cache, so the first
        // decode must preempt the latest arrival.
        let (mut step, mut rec) = (step(4), MetricsRecorder::new());
        let policy = Greedy { chunk: 64 };
        assert!(arrive(&mut step, &mut rec, 1, 8, 2));
        assert!(arrive(&mut step, &mut rec, 2, 8, 2));
        let Scheduled::Batch { id, .. } = schedule(&mut step, &mut rec, &policy) else {
            panic!("prefills must schedule");
        };
        let outcome = step.complete(0.0, id).expect("in flight");
        assert_eq!(outcome.emitted.len(), 2);

        let Scheduled::Batch { prepared, .. } = schedule(&mut step, &mut rec, &policy) else {
            panic!("the surviving decode must schedule");
        };
        assert_eq!(
            prepared.decode.iter().map(|d| d.seq).collect::<Vec<_>>(),
            vec![1]
        );
        assert_eq!(rec.timeline(1).expect("arrived").preemptions, 0);
        assert_eq!(rec.timeline(2).expect("arrived").preemptions, 1);
        assert_eq!(step.preemptions(), 1);
        let preempted = step.trace.events().iter().filter_map(|e| match e.kind {
            TraceEventKind::Preempt { seq } => Some(seq),
            _ => None,
        });
        assert_eq!(preempted.collect::<Vec<_>>(), vec![2]);
        // The auditor dropped the victim's shadow KV (a missed eviction
        // would also show as a KV-accounting violation below).
        let snapshot = step.auditor.as_ref().expect("auditing on").snapshot();
        assert_eq!(snapshot.live_kv_seqs, 1);
        assert_clean(step);
    }

    #[test]
    fn completion_frees_the_kv_of_finished_sequences() {
        let (mut step, mut rec) = (step(8), MetricsRecorder::new());
        let policy = Greedy { chunk: 64 };
        assert!(arrive(&mut step, &mut rec, 1, 6, 1));
        assert!(arrive(&mut step, &mut rec, 2, 6, 3));
        let Scheduled::Batch { id, .. } = schedule(&mut step, &mut rec, &policy) else {
            panic!("prefills must schedule");
        };
        assert_eq!(step.in_flight(), 1);
        let outcome = step.complete(1.0, id).expect("in flight");
        assert_eq!(outcome.finished.iter().map(|&(seq, _)| seq).collect::<Vec<_>>(), vec![1]);
        assert!(!holds_kv(&step, 1), "finished sequence kept its KV");
        assert!(holds_kv(&step, 2), "live sequence lost its KV");
        assert_eq!(step.in_flight(), 0);
        assert!(step.complete(1.0, id).is_none(), "a batch completes once");
        assert!(step.trace.events().iter().any(|e| matches!(
            e.kind,
            TraceEventKind::Complete {
                emitted: 2,
                finished: 1,
                ..
            }
        )));
        assert_clean(step);
    }

    #[test]
    fn arrival_over_capacity_is_rejected_and_audited_as_aborted() {
        let (mut step, mut rec) = (step(8), MetricsRecorder::new());
        // 32 KV tokens: 30 + 1 plus a block of slack does not fit, and a
        // size that overflows never fits.
        assert!(!arrive(&mut step, &mut rec, 1, 30, 1));
        assert!(!arrive(&mut step, &mut rec, 2, 3, usize::MAX));
        assert!(!arrive(&mut step, &mut rec, 3, 0, 4), "empty prompt");
        assert!(!arrive(&mut step, &mut rec, 4, 3, 0), "nothing to generate");
        assert!(!step.pool.has_work());
        // A later arrival may start first: the rejected ones left the FCFS
        // order (otherwise the auditor reports an FCFS inversion).
        assert!(arrive(&mut step, &mut rec, 5, 8, 2));
        assert!(matches!(
            schedule(&mut step, &mut rec, &Greedy { chunk: 64 }),
            Scheduled::Batch { .. }
        ));
        assert_clean(step);
    }

    #[test]
    fn a_live_id_is_refused_without_touching_the_live_request() {
        let (mut step, mut rec) = (step(8), MetricsRecorder::new());
        assert!(arrive(&mut step, &mut rec, 1, 8, 2));
        assert!(!step.arrive(1, 4, 1), "a live id is refused");
        assert_eq!(step.pool.seq(1).map(|s| s.prompt_len), Some(8));
        let Scheduled::Batch { id, .. } = schedule(&mut step, &mut rec, &Greedy { chunk: 64 }) else {
            panic!("the live request must schedule");
        };
        step.complete(0.0, id).expect("in flight");
        assert_clean(step);
    }
}
