//! The driver worker.
//!
//! As in the paper (§3.3), the driver is a full pipeline stage that
//! *additionally* receives requests from the frontend, runs the global
//! scheduler, manages the unified KV cache/page tables, broadcasts batch
//! metadata to every worker and streams sampled tokens back to the
//! frontend. Everything is non-blocking: the driver reads one inbox that
//! carries requests, batch results and worker exits, so it takes in new
//! work while micro-batches execute on downstream stages, and it sleeps
//! when there is nothing to do.
//!
//! # Failure detection and recovery
//!
//! The driver additionally owns the pipeline's fault tolerance. Three
//! signals mark a downstream failure: a metadata or activation send
//! erroring (the receiving worker is gone), a [`DriverMsg::StageExit`]
//! in the inbox (a worker thread ended: killed, desynchronised, or reached
//! by the teardown cascade), and a heartbeat timeout (batches in flight
//! but no completion for a whole `batch_timeout` window — the
//! lost-activation case, where every thread is still alive but the
//! pipeline is wedged). Recovery then:
//!
//! 1. tears the current worker generation down (dropping the channels
//!    cascades every worker to a clean exit) and joins the threads,
//! 2. salvages the completed results the dead generation left in the
//!    inbox, holding back any request that arrived meanwhile until step 5,
//! 3. rolls back every in-flight micro-batch ([`RequestPool::uncommit`])
//!    — their completions will never arrive,
//! 4. evicts all resident KV (it died with the stages that computed it)
//!    and resets every context-holding sequence for recomputation,
//! 5. respawns stages `1..S` from the same weight seed, and
//! 6. if recoveries exceed the bound, fails the open requests with
//!    structured [`StreamEvent::Failed`] events instead of stalling.
//!
//! Because recompute-preemption is already bit-identical (sampling
//! depends only on per-sequence text and step, never on batch shape),
//! a recovered run produces exactly the tokens the fault-free run would.

use std::collections::HashMap;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gllm_core::{BatchPlan, RequestPool, SchedulePolicy};
use gllm_kvcache::KvCacheManager;
use gllm_metrics::{
    AuditReport, AuditSnapshot, MetricsRecorder, PipelineTrace, Scheduled, SchedulerStep,
};
use gllm_transformer::model::BatchChunk;
use gllm_transformer::sampler::SamplingParams;
use gllm_transformer::StageModel;

use crate::fault::{ActivationFate, FaultInjector};
use crate::messages::{
    Activations, BatchMeta, BatchResult, DriverMsg, GenRequest, StreamEvent, WorkerMsg,
};
use crate::worker::{sample_tokens, PipelineLinks, StageSpawner};

/// Per-request bookkeeping the driver keeps beside the pool.
struct SeqInfo {
    /// Full token text: prompt followed by every generated token.
    text: Vec<u32>,
    /// Sampling configuration.
    params: SamplingParams,
}

/// Everything the driver thread hands back at shutdown.
#[derive(Debug)]
pub struct DriverOutput {
    /// Per-request timelines.
    pub recorder: MetricsRecorder,
    /// Invariant-audit report (`None` when auditing was off).
    pub audit: Option<AuditReport>,
    /// Structured per-batch pipeline events (empty unless recording was on).
    pub trace: PipelineTrace,
}

impl DriverOutput {
    /// An output with nothing recorded — what a caller gets when the driver
    /// thread died instead of draining.
    pub fn empty() -> Self {
        Self { recorder: MetricsRecorder::new(), audit: None, trace: PipelineTrace::new(false) }
    }
}

/// Everything [`run_driver`] needs, bundled (the flat 14-argument call
/// outgrew itself once fault tolerance arrived).
pub struct DriverParams {
    /// The driver's own pipeline stage (layers `0..k`).
    pub stage0: StageModel,
    /// The scheduling policy (shared with the simulator).
    pub policy: Arc<dyn SchedulePolicy>,
    /// The unified KV cache manager (driver-owned, as in the paper).
    pub kvm: KvCacheManager,
    /// The driver's inbox: frontend requests and control, batch results
    /// and worker exits. The spawner holds a sender, so it never closes.
    pub inbox: Receiver<DriverMsg>,
    /// The initial downstream worker generation.
    pub links: PipelineLinks,
    /// Respawns downstream stages from seeded weights after a failure.
    pub spawner: StageSpawner,
    /// Token/rejection/failure events to the frontend, one message per
    /// driver step that produced any.
    pub stream_tx: Sender<Vec<StreamEvent>>,
    /// Pipeline depth (= number of stages).
    pub depth: usize,
    /// Per-batch sequence cap.
    pub max_seqs_per_batch: usize,
    /// Chunked pipeline parallelism.
    pub cpp: bool,
    /// Run the invariant auditor.
    pub audit: bool,
    /// Record the pipeline trace.
    pub record_trace: bool,
    /// Shared audit snapshot (read by the server for stall post-mortems).
    pub audit_state: Arc<Mutex<Option<AuditSnapshot>>>,
    /// Armed fault plan (inert when the plan is empty).
    pub injector: FaultInjector,
    /// Full pipeline recoveries allowed before failing open requests.
    pub max_recoveries: usize,
    /// KV-allocation retries per request before a structured rejection.
    pub max_kv_retries: usize,
    /// Heartbeat window: batches in flight with no completion for this
    /// long is treated as a wedged pipeline and triggers recovery.
    pub batch_timeout: Duration,
}

/// The driver loop. Returns the metrics, audit and trace at shutdown.
pub fn run_driver(params: DriverParams) -> DriverOutput {
    Driver::new(params).run()
}

/// How long the driver waits before retrying a round that backed off
/// after a failed KV reservation.
const KV_RETRY: Duration = Duration::from_millis(1);

/// Outcome of one scheduling attempt.
enum Step {
    /// A batch was dispatched (or the attempt consumed a transient
    /// condition) — try to schedule more.
    Continue,
    /// Nothing schedulable right now — leave the scheduling loop.
    Idle,
}

struct Driver {
    t0: Instant,
    /// The global scheduler: pool, KV cache, auditor, trace and the
    /// in-flight batches.
    step: SchedulerStep,
    recorder: MetricsRecorder,
    seqs: HashMap<u64, SeqInfo>,
    shutting_down: bool,
    single_stage: bool,

    stage0: StageModel,
    policy: Arc<dyn SchedulePolicy>,
    inbox: Receiver<DriverMsg>,
    links: PipelineLinks,
    spawner: StageSpawner,
    stream_tx: Sender<Vec<StreamEvent>>,
    audit_state: Arc<Mutex<Option<AuditSnapshot>>>,

    injector: FaultInjector,
    /// Set when a send failed or a worker exited; the next loop turn runs
    /// recovery. A failed send needs no wake-up of its own: the worker that
    /// hung up sends `StageExit` as it ends.
    pipeline_down: bool,
    /// The last scheduling round backed off after a failed KV
    /// reservation; retry after [`KV_RETRY`] even if nothing arrives.
    kv_backoff: bool,
    recoveries: usize,
    max_recoveries: usize,
    /// Failed KV-allocation attempts per live request.
    kv_retries: HashMap<u64, usize>,
    max_kv_retries: usize,
    batch_timeout: Duration,
    /// Last time a batch completed, a batch entered an empty pipeline, or
    /// the pipeline was (re)started.
    last_progress: Instant,
}

impl Driver {
    fn new(p: DriverParams) -> Self {
        let single_stage = p.spawner.num_stages() == 1;
        Self {
            t0: Instant::now(),
            // Built here, on the driver thread: built on the spawning thread
            // instead, the step raised peak RSS by ~3 MB under HTTP load.
            step: SchedulerStep::new(
                RequestPool::new(p.max_seqs_per_batch).with_cpp(p.cpp),
                p.kvm,
                p.depth,
                p.audit,
                p.record_trace,
            ),
            recorder: MetricsRecorder::new(),
            seqs: HashMap::new(),
            shutting_down: false,
            single_stage,
            stage0: p.stage0,
            policy: p.policy,
            inbox: p.inbox,
            links: p.links,
            spawner: p.spawner,
            stream_tx: p.stream_tx,
            audit_state: p.audit_state,
            injector: p.injector,
            pipeline_down: false,
            kv_backoff: false,
            recoveries: 0,
            max_recoveries: p.max_recoveries,
            kv_retries: HashMap::new(),
            max_kv_retries: p.max_kv_retries,
            batch_timeout: p.batch_timeout,
            last_progress: Instant::now(),
        }
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    fn run(mut self) -> DriverOutput {
        loop {
            if let Some(msg) = self.next_msg() {
                self.on_msg(msg);
            }
            // Take in whatever else is ready before scheduling.
            while let Ok(msg) = self.inbox.try_recv() {
                self.on_msg(msg);
            }

            self.drain_fault_log();
            if !self.single_stage {
                if !self.pipeline_down
                    && self.step.in_flight() > 0
                    && self.last_progress.elapsed() >= self.batch_timeout
                {
                    // Heartbeat expired: threads may all be alive, but no
                    // batch has completed for a whole window (e.g. a
                    // dropped activation wedged the chain).
                    let now = self.now();
                    if let Some(a) = self.step.auditor.as_mut() {
                        a.on_fault(now);
                    }
                    self.step.trace.fault(now, "heartbeat timeout: no batch completion");
                    self.pipeline_down = true;
                }
                if self.pipeline_down {
                    self.recover();
                }
            }

            // Schedule while pipeline slots remain.
            self.kv_backoff = false;
            while !self.step.is_full() && !self.pipeline_down {
                match self.schedule_once() {
                    Step::Continue => {}
                    Step::Idle => break,
                }
            }

            if self.shutting_down && self.step.in_flight() == 0 {
                break;
            }
        }
        self.drain_fault_log();
        for tx in &self.links.meta_txs {
            let _ = tx.send(WorkerMsg::Shutdown);
        }
        for h in self.links.handles.drain(..) {
            let _ = h.join();
        }
        let (trace, audit) = self.step.finish();
        DriverOutput { recorder: self.recorder, audit, trace }
    }

    /// Wait for the next inbox message. With nothing to wait for the driver
    /// sleeps until a message arrives; otherwise it wakes at the earlier of
    /// the heartbeat deadline (batches in flight) and the KV retry. `None`
    /// means a deadline passed first.
    fn next_msg(&self) -> Option<DriverMsg> {
        let heartbeat = (!self.single_stage && self.step.in_flight() > 0)
            .then(|| self.batch_timeout.saturating_sub(self.last_progress.elapsed()));
        let backoff = self.kv_backoff.then_some(KV_RETRY);
        match heartbeat.into_iter().chain(backoff).min() {
            None => self.inbox.recv().ok(),
            Some(wait) => self.inbox.recv_timeout(wait).ok(),
        }
    }

    fn on_msg(&mut self, msg: DriverMsg) {
        match msg {
            DriverMsg::Submit(r) => self.on_submit(r),
            DriverMsg::Shutdown => self.shutting_down = true,
            DriverMsg::Result(res) => self.on_result(res),
            DriverMsg::StageExit => self.pipeline_down = true,
        }
    }

    /// Fold injector firings (wherever they happened — worker threads
    /// included) into the audit counters and the pipeline trace.
    fn drain_fault_log(&mut self) {
        for desc in self.injector.take_fired() {
            let now = self.now();
            if let Some(a) = self.step.auditor.as_mut() {
                a.on_fault(now);
            }
            self.step.trace.fault(now, &desc);
        }
    }

    fn publish_snapshot(&mut self) {
        if let Some(a) = self.step.auditor.as_ref() {
            // Snapshot outside the critical section: the server reads this
            // mutex from another thread, so the guard should only span the
            // pointer-sized store, not the snapshot build.
            let snap = a.snapshot();
            if let Ok(mut shared) = self.audit_state.lock() {
                *shared = Some(snap);
            }
        }
    }

    fn on_submit(&mut self, r: GenRequest) {
        let now = self.now();
        // An id already seen is refused before anything records it: its
        // timeline (and, while live, its pool entry) belongs to the first
        // request under that id.
        let admitted = match self.recorder.timeline(r.id) {
            Some(_) => false,
            None => {
                let handle = self.recorder.on_arrival(r.id, now, r.prompt.len());
                self.step.arrive(r.id, r.prompt.len(), r.max_new, handle)
            }
        };
        if !admitted {
            let _ = self.stream_tx.send(vec![StreamEvent::Rejected { seq: r.id }]);
            return;
        }
        self.seqs.insert(r.id, SeqInfo { text: r.prompt, params: r.params });
    }

    fn on_result(&mut self, res: BatchResult) {
        let now = self.now();
        let Some(outcome) = self.step.complete(now, res.batch) else {
            // A result for a batch we never scheduled (or already rolled
            // back): drop it rather than panicking; the auditor's
            // completion pairing will flag a genuine gap.
            return;
        };
        let token_of: HashMap<u64, u32> = res.tokens.into_iter().collect();
        let mut events = Vec::with_capacity(outcome.emitted.len());
        for e in &outcome.emitted {
            let Some(&token) = token_of.get(&e.seq) else { continue };
            let handle = self.step.handle(e.slot);
            self.recorder.on_token(handle, now);
            if e.finished {
                self.recorder.on_finish(handle, now);
                self.seqs.remove(&e.seq);
                self.kv_retries.remove(&e.seq);
            } else if let Some(info) = self.seqs.get_mut(&e.seq) {
                info.text.push(token);
            }
            events.push(StreamEvent::Token { seq: e.seq, token, finished: e.finished });
        }
        // One message per completed batch: the frontend wakes once for
        // all of the batch's tokens rather than once per token.
        if !events.is_empty() {
            let _ = self.stream_tx.send(events);
        }
        self.last_progress = Instant::now();
        self.publish_snapshot();
    }

    /// Terminate a live, not-in-flight request with a structured failure
    /// event: KV evicted, pool entry dropped, counters updated. The
    /// pipeline keeps serving everyone else.
    fn fail_request(&mut self, seq: u64) {
        let now = self.now();
        if let Some(slot) = self.step.pool.slot(seq) {
            if self.step.kv.contains(slot, seq) {
                let _ = self.step.kv.evict(slot, seq);
                if let Some(a) = self.step.auditor.as_mut() {
                    a.on_evict(slot, seq);
                }
            }
            self.step.pool.abort(seq);
        }
        self.seqs.remove(&seq);
        self.kv_retries.remove(&seq);
        self.injector.clear_kv_fault(seq);
        if let Some(a) = self.step.auditor.as_mut() {
            a.on_request_failed(now, seq);
        }
        self.publish_snapshot();
        let _ = self.stream_tx.send(vec![StreamEvent::Failed { seq }]);
    }

    /// One scheduling attempt: plan, admit, commit, broadcast, execute
    /// stage 0, hand off (or finish inline on a single-stage pipeline).
    fn schedule_once(&mut self) -> Step {
        let proposal = self.step.propose(self.policy.as_ref());

        // Injected KV-allocation failures surface here, where the real
        // reservation would happen: back off and retry the whole round
        // (bounded), then reject the victim request with a structured
        // event while everyone else keeps flowing.
        let plan = proposal.plan();
        let kv_victim = plan
            .prefill
            .iter()
            .map(|c| c.seq)
            .chain(plan.decode.iter().map(|d| d.seq))
            .find(|&seq| self.injector.kv_alloc_should_fail(seq));
        if let Some(victim) = kv_victim {
            self.drain_fault_log();
            let attempts = self.kv_retries.entry(victim).or_insert(0);
            *attempts += 1;
            if *attempts > self.max_kv_retries
                && self.step.pool.seq(victim).is_some_and(|s| !s.is_in_flight())
            {
                self.fail_request(victim);
                return Step::Continue; // replan without the victim
            }
            self.kv_backoff = true;
            return Step::Idle; // back off; retry after KV_RETRY
        }

        let (now, seqs) = (self.now(), &self.seqs);
        let scheduled = self.step.schedule(proposal, &mut self.recorder, now, |id, plan, pool, kv| {
            build_meta(id, plan, pool, kv, seqs)
        });
        let (batch, meta) = match scheduled {
            Scheduled::Batch { id, prepared } => (id, prepared),
            Scheduled::Unstalled => return Step::Continue,
            Scheduled::Idle => return Step::Idle,
            Scheduled::Rejected(e) => {
                // The driver's own bookkeeping is inconsistent for this
                // sequence (a committed chunk without KV or pool entry):
                // the step rolled the plan back and recorded an audit
                // violation; the offending request fails and the pipeline
                // keeps serving.
                self.fail_request(e.seq);
                return Step::Continue;
            }
        };
        if self.step.in_flight() == 1 {
            // The pipeline was empty: the heartbeat window starts with this
            // batch, not with the last completion before an idle spell.
            self.last_progress = Instant::now();
        }
        self.publish_snapshot();
        // The step counted the batch in flight before any send below: if a
        // worker dies mid-broadcast, recovery rolls this batch back too.
        // Preemptive metadata: every worker learns the batch layout
        // before any activations move.
        for tx in &self.links.meta_txs {
            if tx.send(WorkerMsg::Batch(meta.clone())).is_err() {
                self.pipeline_down = true;
                return Step::Idle;
            }
        }
        // Stage-0 execution (the driver is a worker too).
        let tables: Vec<_> = meta.tables.iter().collect();
        let stage_start = self.now();
        let mut hidden = self.stage0.embed(&meta.chunks);
        self.stage0.forward(&meta.chunks, &tables, &mut hidden);
        self.step.trace.stage(stage_start, self.now(), batch, 0);
        if self.single_stage {
            // Driver is also the last stage: project, sample, complete.
            let tokens = sample_tokens(&self.stage0, &meta, &hidden);
            self.on_result(BatchResult { batch, tokens });
            return Step::Continue;
        }
        match self.injector.activation_fate(0, batch) {
            ActivationFate::Drop => {
                // The metadata went out but the activations never will:
                // downstream desynchronises on the next batch, or the
                // heartbeat timeout fires. Either way recovery requeues
                // this batch.
                self.drain_fault_log();
                return Step::Continue;
            }
            ActivationFate::Delay(d) => {
                self.drain_fault_log();
                std::thread::sleep(d);
            }
            ActivationFate::Deliver => {}
        }
        let sent = self
            .links
            .act_tx
            .as_ref()
            .map(|tx| tx.send(Activations { batch, hidden }).is_ok())
            .unwrap_or(false);
        if !sent {
            // Stage 1 hung up: recovery will requeue this batch.
            self.pipeline_down = true;
            return Step::Idle;
        }
        Step::Continue
    }

    /// Tear down, roll back, respawn — see the module docs for the
    /// protocol. Bounded by `max_recoveries`, after which open requests
    /// fail with structured events instead of the run stalling.
    fn recover(&mut self) {
        self.recoveries += 1;
        let now = self.now();
        self.step.trace.fault(now, "pipeline down: tearing down for recovery");
        if let Some(a) = self.step.auditor.as_mut() {
            a.on_fault(now);
        }

        // 1. Tear down: dropping every sender cascades the workers out.
        self.links.meta_txs.clear();
        self.links.act_tx = None;
        for h in self.links.handles.drain(..) {
            let _ = h.join();
        }
        // 2. Salvage the results that escaped before the generation died:
        //    with the workers joined, every one of them is in the inbox.
        //    Requests that arrived meanwhile wait for the new generation,
        //    so the give-up below cannot fail them.
        let mut held = Vec::new();
        while let Ok(msg) = self.inbox.try_recv() {
            match msg {
                DriverMsg::Result(res) => self.on_result(res),
                DriverMsg::StageExit => {}
                other => held.push(other),
            }
        }
        // 3. Roll back every batch that will never complete, oldest first.
        let lost = self.step.abandon_in_flight();
        // 4. All resident KV died with the stages that computed it.
        for (seq, slot) in self.step.kv.live_sequences() {
            let _ = self.step.kv.evict(slot, seq);
            if let Some(a) = self.step.auditor.as_mut() {
                a.on_evict(slot, seq);
            }
        }
        let reset = self.step.pool.preempt_all_live();
        let now = self.now();
        for &(seq, slot) in &reset {
            self.recorder.on_preemption(self.step.handle(slot));
            self.step.trace.preempt(now, seq);
        }
        if let Some(a) = self.step.auditor.as_mut() {
            a.on_recovery(now, lost);
        }
        self.step.trace.recovery(now, lost, reset.len());
        self.publish_snapshot();

        // 6. Bounded: past the limit, fail the open requests (the likely
        //    trigger of the repeated failures) instead of stalling the
        //    whole run — then keep serving whatever arrives next.
        if self.recoveries > self.max_recoveries {
            let mut open: Vec<u64> = self.seqs.keys().copied().collect();
            open.sort_unstable();
            for seq in open {
                self.fail_request(seq);
            }
        }

        // 5. Respawn from the same seed: parameter-identical stages.
        self.links = self.spawner.spawn_downstream();
        self.pipeline_down = false;
        self.last_progress = Instant::now();
        for msg in held {
            self.on_msg(msg);
        }
    }
}

/// A committed plan referenced state the driver does not actually hold —
/// the bookkeeping inconsistency [`build_meta`] reports instead of
/// panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
struct MetaIntegrityError {
    /// The sequence whose state is missing.
    seq: u64,
    /// What was missing.
    what: &'static str,
}

impl std::fmt::Display for MetaIntegrityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "committed chunk for seq {} has no {}", self.seq, self.what)
    }
}

/// Assemble the broadcast metadata for an admitted, committed plan.
/// Every committed chunk must have a live pool entry, its request text
/// and a KV table; a gap is reported as a [`MetaIntegrityError`] so the
/// driver can reject the request instead of crashing the pipeline.
fn build_meta(
    batch: u64,
    plan: &BatchPlan,
    pool: &RequestPool,
    kvm: &KvCacheManager,
    seqs: &HashMap<u64, SeqInfo>,
) -> Result<BatchMeta, MetaIntegrityError> {
    let mut chunks = Vec::with_capacity(plan.num_seqs());
    let mut tables = Vec::with_capacity(plan.num_seqs());
    let mut samples = Vec::with_capacity(plan.num_seqs());
    for c in &plan.prefill {
        let Some(info) = seqs.get(&c.seq) else {
            return Err(MetaIntegrityError { seq: c.seq, what: "request text" });
        };
        let Some(table) = kvm.table(c.slot, c.seq) else {
            return Err(MetaIntegrityError { seq: c.seq, what: "KV table" });
        };
        let Some(state) = pool.seq_at(c.slot, c.seq) else {
            return Err(MetaIntegrityError { seq: c.seq, what: "pool entry" });
        };
        let start = c.context_before.get();
        let end = start + c.tokens.get();
        let Some(text) = info.text.get(start..end) else {
            return Err(MetaIntegrityError { seq: c.seq, what: "prompt text for its chunk range" });
        };
        chunks.push(BatchChunk {
            seq: c.seq,
            start_pos: start,
            tokens: text.to_vec(),
            sample: c.completes_prompt,
        });
        tables.push(table.clone());
        samples.push(c.completes_prompt.then_some((info.params, state.generated)));
    }
    for d in &plan.decode {
        let Some(info) = seqs.get(&d.seq) else {
            return Err(MetaIntegrityError { seq: d.seq, what: "request text" });
        };
        let Some(table) = kvm.table(d.slot, d.seq) else {
            return Err(MetaIntegrityError { seq: d.seq, what: "KV table" });
        };
        let Some(state) = pool.seq_at(d.slot, d.seq) else {
            return Err(MetaIntegrityError { seq: d.seq, what: "pool entry" });
        };
        let start = d.context_before.get();
        let Some(&token) = info.text.get(start) else {
            return Err(MetaIntegrityError { seq: d.seq, what: "text at its decode position" });
        };
        chunks.push(BatchChunk { seq: d.seq, start_pos: start, tokens: vec![token], sample: true });
        tables.push(table.clone());
        samples.push(Some((info.params, state.generated)));
    }
    Ok(BatchMeta { batch, chunks, tables, samples })
}
