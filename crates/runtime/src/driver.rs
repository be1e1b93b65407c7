//! The driver worker.
//!
//! As in the paper (§3.3), the driver is a full pipeline stage that
//! *additionally* receives requests from the frontend, runs the global
//! scheduler, manages the unified KV cache/page tables, broadcasts batch
//! metadata to every worker and streams sampled tokens back to the
//! frontend. Everything is non-blocking: the driver multiplexes request
//! intake and batch results with `select!` while micro-batches execute on
//! downstream stages.
//!
//! # Failure detection and recovery
//!
//! The driver additionally owns the pipeline's fault tolerance. Three
//! signals mark a downstream failure: a metadata or activation send
//! erroring (the receiving worker is gone), the result channel
//! disconnecting (the last stage died or the teardown cascade reached
//! it), and a heartbeat timeout (batches in flight but no completion for
//! a whole `batch_timeout` window — the lost-activation case, where every
//! thread is still alive but the pipeline is wedged). Recovery then:
//!
//! 1. tears the current worker generation down (dropping the channels
//!    cascades every worker to a clean exit) and joins the threads,
//! 2. salvages any completed results still queued from the dead
//!    generation,
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

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, Sender};
use gllm_core::{admit, BatchPlan, RequestPool, SchedulePolicy};
use gllm_kvcache::{KvCacheManager, Tokens};
use gllm_metrics::{
    AuditReport, AuditSnapshot, InvariantAuditor, KvObservation, MetricsRecorder, PipelineTrace,
    PlanCaps,
};
use gllm_transformer::model::BatchChunk;
use gllm_transformer::sampler::{sample, SamplingParams};
use gllm_transformer::StageModel;

use crate::fault::{ActivationFate, FaultInjector};
use crate::messages::{
    Activations, BatchMeta, BatchResult, DriverMsg, GenRequest, StreamEvent, WorkerMsg,
};
use crate::worker::{PipelineLinks, StageSpawner};

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
    /// Frontend requests and control.
    pub req_rx: Receiver<DriverMsg>,
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

/// What the multiplexer woke up on.
enum Wake {
    Req(DriverMsg),
    ReqClosed,
    Res(BatchResult),
    ResClosed,
    Tick,
}

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
    pool: RequestPool,
    recorder: MetricsRecorder,
    seqs: HashMap<u64, SeqInfo>,
    /// In-flight plans by batch id. Ordered so a recovery rolls batches
    /// back deterministically (oldest first).
    plans: BTreeMap<u64, BatchPlan>,
    next_batch: u64,
    in_flight: usize,
    shutting_down: bool,
    single_stage: bool,
    auditor: Option<InvariantAuditor>,
    ptrace: PipelineTrace,

    stage0: StageModel,
    policy: Arc<dyn SchedulePolicy>,
    kvm: KvCacheManager,
    req_rx: Receiver<DriverMsg>,
    links: PipelineLinks,
    spawner: StageSpawner,
    stream_tx: Sender<Vec<StreamEvent>>,
    depth: usize,
    audit_state: Arc<Mutex<Option<AuditSnapshot>>>,

    injector: FaultInjector,
    /// Set when a send failed or the result channel disconnected; the
    /// next loop turn runs recovery.
    pipeline_down: bool,
    recoveries: usize,
    max_recoveries: usize,
    /// Failed KV-allocation attempts per live request.
    kv_retries: HashMap<u64, usize>,
    max_kv_retries: usize,
    batch_timeout: Duration,
    /// Last time a batch completed (or the pipeline was (re)started).
    last_progress: Instant,
}

impl Driver {
    fn new(p: DriverParams) -> Self {
        let single_stage = p.spawner.num_stages() == 1;
        let auditor = p
            .audit
            .then(|| InvariantAuditor::new(p.kvm.stats().total_blocks, p.kvm.block_size(), p.depth));
        Self {
            t0: Instant::now(),
            pool: RequestPool::new(p.max_seqs_per_batch).with_cpp(p.cpp),
            recorder: MetricsRecorder::new(),
            seqs: HashMap::new(),
            plans: BTreeMap::new(),
            next_batch: 0,
            in_flight: 0,
            shutting_down: false,
            single_stage,
            auditor,
            ptrace: PipelineTrace::new(p.record_trace),
            stage0: p.stage0,
            policy: p.policy,
            kvm: p.kvm,
            req_rx: p.req_rx,
            links: p.links,
            spawner: p.spawner,
            stream_tx: p.stream_tx,
            depth: p.depth,
            audit_state: p.audit_state,
            injector: p.injector,
            pipeline_down: false,
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
            let mut wake = Wake::Tick;
            crossbeam::channel::select! {
                recv(self.req_rx) -> msg => wake = match msg {
                    Ok(m) => Wake::Req(m),
                    Err(_) => Wake::ReqClosed,
                },
                recv(self.links.result_rx) -> res => wake = match res {
                    Ok(r) => Wake::Res(r),
                    Err(_) => Wake::ResClosed,
                },
                default(Duration::from_millis(1)) => {},
            }
            match wake {
                Wake::Req(DriverMsg::Submit(r)) => self.on_submit(r),
                Wake::Req(DriverMsg::Shutdown) | Wake::ReqClosed => self.shutting_down = true,
                Wake::Res(res) => self.on_result(res),
                Wake::ResClosed => {
                    if !self.single_stage {
                        self.pipeline_down = true;
                    }
                }
                Wake::Tick => {}
            }
            // Drain whatever else is ready before scheduling.
            while let Ok(msg) = self.req_rx.try_recv() {
                match msg {
                    DriverMsg::Submit(r) => self.on_submit(r),
                    DriverMsg::Shutdown => self.shutting_down = true,
                }
            }
            loop {
                match self.links.result_rx.try_recv() {
                    Ok(res) => self.on_result(res),
                    Err(crossbeam::channel::TryRecvError::Empty) => break,
                    Err(crossbeam::channel::TryRecvError::Disconnected) => {
                        if !self.single_stage {
                            self.pipeline_down = true;
                        }
                        break;
                    }
                }
            }

            self.drain_fault_log();
            if !self.single_stage {
                if !self.pipeline_down
                    && self.in_flight > 0
                    && self.last_progress.elapsed() >= self.batch_timeout
                {
                    // Heartbeat expired: threads may all be alive, but no
                    // batch has completed for a whole window (e.g. a
                    // dropped activation wedged the chain).
                    let now = self.now();
                    if let Some(a) = self.auditor.as_mut() {
                        a.on_fault(now);
                    }
                    self.ptrace.fault(now, "heartbeat timeout: no batch completion");
                    self.pipeline_down = true;
                }
                if self.pipeline_down {
                    self.recover();
                }
            }

            // Schedule while pipeline slots remain.
            while self.in_flight < self.depth && !self.pipeline_down {
                match self.schedule_once() {
                    Step::Continue => {}
                    Step::Idle => break,
                }
            }

            if self.shutting_down && self.in_flight == 0 {
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
        let drained = !self.pool.has_work();
        DriverOutput {
            recorder: self.recorder,
            audit: self.auditor.map(|a| a.into_report(drained)),
            trace: self.ptrace,
        }
    }

    /// Fold injector firings (wherever they happened — worker threads
    /// included) into the audit counters and the pipeline trace.
    fn drain_fault_log(&mut self) {
        for desc in self.injector.take_fired() {
            let now = self.now();
            if let Some(a) = self.auditor.as_mut() {
                a.on_fault(now);
            }
            self.ptrace.fault(now, &desc);
        }
    }

    fn publish_snapshot(&mut self) {
        if let Some(a) = self.auditor.as_ref() {
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
        self.recorder.on_arrival(r.id, now, r.prompt.len());
        if let Some(a) = self.auditor.as_mut() {
            a.on_arrival(r.id);
        }
        if r.prompt.is_empty()
            || r.max_new == 0
            || Tokens(r.prompt.len() + r.max_new) + self.kvm.block_size() > self.kvm.token_capacity()
        {
            if let Some(a) = self.auditor.as_mut() {
                a.on_abort(r.id);
            }
            let _ = self.stream_tx.send(vec![StreamEvent::Rejected { seq: r.id }]);
            return;
        }
        self.pool.add(r.id, r.prompt.len(), r.max_new);
        self.seqs.insert(r.id, SeqInfo { text: r.prompt, params: r.params });
    }

    fn on_result(&mut self, res: BatchResult) {
        let Some(plan) = self.plans.remove(&res.batch) else {
            // A result for a batch we never scheduled (or already rolled
            // back): drop it rather than panicking; the auditor's
            // completion pairing will flag a genuine gap.
            return;
        };
        let outcome = self.pool.complete(&plan);
        let now = self.now();
        let token_of: HashMap<u64, u32> = res.tokens.into_iter().collect();
        let mut events = Vec::with_capacity(outcome.emitted.len());
        for e in &outcome.emitted {
            let Some(&token) = token_of.get(&e.seq) else { continue };
            self.recorder.on_token(e.seq, now);
            if e.finished {
                self.recorder.on_finish(e.seq, now);
                let _ = self.kvm.free(e.seq);
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
        self.in_flight -= 1;
        self.last_progress = Instant::now();
        self.ptrace.complete(now, res.batch, outcome.emitted.len(), outcome.finished.len());
        if let Some(a) = self.auditor.as_mut() {
            a.on_complete(now, res.batch, &outcome.finished, kv_obs(&self.kvm));
        }
        self.publish_snapshot();
    }

    /// Terminate a live, not-in-flight request with a structured failure
    /// event: KV evicted, pool entry dropped, counters updated. The
    /// pipeline keeps serving everyone else.
    fn fail_request(&mut self, seq: u64) {
        let now = self.now();
        if self.kvm.contains(seq) {
            let _ = self.kvm.evict(seq);
            if let Some(a) = self.auditor.as_mut() {
                a.on_evict(seq);
            }
        }
        if self.pool.seq(seq).is_some() {
            self.pool.abort(seq);
        }
        self.seqs.remove(&seq);
        self.kv_retries.remove(&seq);
        self.injector.clear_kv_fault(seq);
        if let Some(a) = self.auditor.as_mut() {
            a.on_request_failed(now, seq);
        }
        self.publish_snapshot();
        let _ = self.stream_tx.send(vec![StreamEvent::Failed { seq }]);
    }

    /// One scheduling attempt: plan, admit, commit, broadcast, execute
    /// stage 0, hand off (or finish inline on a single-stage pipeline).
    fn schedule_once(&mut self) -> Step {
        let view = self.pool.view(
            self.kvm.free_rate(),
            self.kvm.free_blocks().to_tokens(self.kvm.block_size()),
            self.kvm.block_size(),
            self.depth,
        );
        let kv_before = kv_obs(&self.kvm);
        let caps = self
            .policy
            .budget_caps(&view)
            .map(|(prefill_tokens, decode_seqs)| PlanCaps { prefill_tokens, decode_seqs });
        let proposed = self.policy.plan(&view);

        // Injected KV-allocation failures surface here, where the real
        // reservation would happen: back off and retry the whole round
        // (bounded), then reject the victim request with a structured
        // event while everyone else keeps flowing.
        let planned_seqs = proposed
            .prefill
            .iter()
            .map(|c| c.seq)
            .chain(proposed.decode.iter().map(|d| d.seq));
        let mut kv_victim = None;
        for seq in planned_seqs {
            if self.injector.kv_alloc_should_fail(seq) {
                kv_victim = Some(seq);
                break;
            }
        }
        if let Some(victim) = kv_victim {
            self.drain_fault_log();
            let attempts = self.kv_retries.entry(victim).or_insert(0);
            *attempts += 1;
            if *attempts > self.max_kv_retries
                && self.pool.seq(victim).is_some_and(|s| !s.is_in_flight())
            {
                self.fail_request(victim);
                return Step::Continue; // replan without the victim
            }
            return Step::Idle; // back off; retry next multiplexer turn
        }

        let proposed_copy = self.auditor.as_ref().map(|_| proposed.clone());
        let admission = admit(proposed, &mut self.pool, &mut self.kvm);
        for &victim in &admission.preempted {
            self.recorder.on_preemption(victim);
            let now = self.now();
            self.ptrace.preempt(now, victim);
            if let Some(a) = self.auditor.as_mut() {
                a.on_evict(victim);
            }
        }
        let plan = admission.plan;
        if plan.is_empty() {
            if self.in_flight == 0 && self.pool.has_work() {
                if let Some((victim, _)) = self.pool.preempt_stalled_waiting() {
                    if self.kvm.contains(victim) {
                        let _ = self.kvm.evict(victim);
                    }
                    self.recorder.on_preemption(victim);
                    let now = self.now();
                    self.ptrace.preempt(now, victim);
                    if let Some(a) = self.auditor.as_mut() {
                        a.on_evict(victim);
                    }
                    return Step::Continue;
                }
            }
            return Step::Idle;
        }
        self.pool.commit(&plan);
        let batch = self.next_batch;
        let meta = match build_meta(batch, &plan, &self.pool, &self.kvm, &self.seqs) {
            Ok(meta) => meta,
            Err(e) => {
                // The driver's own bookkeeping is inconsistent for this
                // sequence (a committed chunk without KV or pool entry).
                // Pre-fault-tolerance this was a panic; now the plan rolls
                // back, the offending request fails with an audit
                // violation on record, and the pipeline keeps serving.
                self.pool.uncommit(&plan);
                let now = self.now();
                if let Some(a) = self.auditor.as_mut() {
                    a.on_integrity_failure(now, Some(batch), e.to_string());
                }
                self.fail_request(e.seq);
                return Step::Continue;
            }
        };
        self.next_batch += 1;
        let now = self.now();
        if let (Some(a), Some(proposed)) = (self.auditor.as_mut(), proposed_copy.as_ref()) {
            a.on_schedule(now, batch, proposed, &plan, caps, kv_before, kv_obs(&self.kvm));
        }
        self.publish_snapshot();
        self.ptrace.schedule(
            now,
            batch,
            plan.prefill_tokens().get(),
            plan.decode_tokens().get(),
            plan.num_seqs(),
        );
        // Count the batch in flight *before* any send: if a worker died
        // mid-broadcast, recovery must see this batch among the plans to
        // roll back.
        self.plans.insert(batch, plan);
        self.in_flight += 1;
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
        self.ptrace.stage(stage_start, self.now(), batch, 0);
        if self.single_stage {
            // Driver is also the last stage: project, sample, complete.
            let logits = self.stage0.project(&meta.chunks, &hidden);
            let mut tokens = Vec::with_capacity(logits.len());
            let mut li = 0;
            for (ci, chunk) in meta.chunks.iter().enumerate() {
                if !chunk.sample {
                    continue;
                }
                let (seq, lg) = &logits[li];
                li += 1;
                let Some((params, step)) = meta.samples[ci] else { continue };
                tokens.push((*seq, sample(lg, &params, *seq, step)));
            }
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
        self.ptrace.fault(now, "pipeline down: tearing down for recovery");
        if let Some(a) = self.auditor.as_mut() {
            a.on_fault(now);
        }

        // 1. Tear down: dropping every sender cascades the workers out.
        let dead = std::mem::replace(&mut self.links, PipelineLinks::empty());
        drop(dead.meta_txs);
        drop(dead.act_tx);
        for h in dead.handles {
            let _ = h.join();
        }
        // 2. Salvage results that escaped before the generation died —
        //    queued messages survive their senders, and with the workers
        //    joined this drain is complete.
        while let Ok(res) = dead.result_rx.try_recv() {
            self.on_result(res);
        }
        // 3. Roll back every batch that will never complete, oldest first.
        let lost: Vec<BatchPlan> = std::mem::take(&mut self.plans).into_values().collect();
        for plan in &lost {
            self.pool.uncommit(plan);
        }
        self.in_flight = 0;
        // 4. All resident KV died with the stages that computed it.
        let mut live = self.kvm.live_sequences();
        live.sort_unstable();
        for seq in live {
            let _ = self.kvm.evict(seq);
            if let Some(a) = self.auditor.as_mut() {
                a.on_evict(seq);
            }
        }
        let reset = self.pool.preempt_all_live();
        let now = self.now();
        for &seq in &reset {
            self.recorder.on_preemption(seq);
            self.ptrace.preempt(now, seq);
        }
        if let Some(a) = self.auditor.as_mut() {
            a.on_recovery(now, lost.len());
        }
        self.ptrace.recovery(now, lost.len(), reset.len());
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
    }
}

/// Snapshot the KV manager for the auditor.
fn kv_obs(kvm: &KvCacheManager) -> KvObservation {
    let s = kvm.stats();
    KvObservation { free_blocks: s.free_blocks, used_blocks: s.used_blocks }
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
        let Some(table) = kvm.table(c.seq) else {
            return Err(MetaIntegrityError { seq: c.seq, what: "KV table" });
        };
        let Some(state) = pool.seq(c.seq) else {
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
        let Some(table) = kvm.table(d.seq) else {
            return Err(MetaIntegrityError { seq: d.seq, what: "KV table" });
        };
        let Some(state) = pool.seq(d.seq) else {
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
