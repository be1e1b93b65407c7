//! One group of pipeline stages: the machinery every simulated plane
//! drives.
//!
//! A [`Pipeline`] owns a scheduling step, the stages it feeds and the
//! micro-batches in flight between them. It performs the paper's driver
//! loop (§3.3): schedule a fresh micro-batch whenever stage 0 is free and
//! fewer than `#PP_depth` batches are in flight, run it through the stages
//! in order — each hop paying the activation transfer — and complete it
//! when it leaves the last stage. The unified engine drives one pipeline;
//! the disaggregated simulator drives two. Both share one [`Sim`]: the
//! virtual clock, the event queue and the observers.

use std::collections::{BTreeMap, VecDeque};
use std::convert::Infallible;

use gllm_core::{BatchOutcome, BatchPlan, SchedulePolicy};
use gllm_metrics::{BusyTracker, MetricsRecorder, Scheduled, SchedulerStep, TokenTrace};
use gllm_model::{BatchWorkload, SequenceChunk, StageTimeCache};
use gllm_workload::Trace;

use crate::engine::{EngineConfig, ExecutionModel, SimOutput};
use crate::event::{Event, EventQueue};
use crate::runtime_model::RuntimeModel;

/// The state one simulation's pipelines share.
pub(crate) struct Sim<'a> {
    cfg: &'a EngineConfig,
    pub(crate) clock: f64,
    pub(crate) events: EventQueue,
    pub(crate) recorder: MetricsRecorder,
    token_trace: TokenTrace,
    busy: BusyTracker,
}

impl<'a> Sim<'a> {
    /// A run of `trace` on `num_gpus` GPUs whose pipelines are up to
    /// `stages` deep, with every arrival queued. The hot buffers are
    /// pre-sized: one arrival and one timeline per request (plus a small
    /// in-flight margin), and roughly one token-trace point / stage
    /// interval per output token — a cheap lower bound that absorbs the
    /// early doubling reallocations.
    pub(crate) fn new(
        cfg: &'a EngineConfig,
        trace: &Trace,
        num_gpus: usize,
        stages: usize,
    ) -> Self {
        let n = trace.requests.len();
        let mut events = EventQueue::with_capacity(n + 2 * stages + 8);
        for (i, r) in trace.requests.iter().enumerate() {
            events.push(r.arrival_s, Event::Arrival { trace_index: i });
        }
        let token_trace = if cfg.record_token_trace {
            TokenTrace::with_capacity(2 * n)
        } else {
            TokenTrace::new()
        };
        let busy = if cfg.record_utilization {
            BusyTracker::with_capacity(num_gpus, 2 * n * stages)
        } else {
            BusyTracker::new(num_gpus)
        };
        let recorder = MetricsRecorder::with_capacity(n);
        Self { cfg, clock: 0.0, events, recorder, token_trace, busy }
    }

    /// Pop the next event within the time limit and move the clock to it.
    pub(crate) fn next_event(&mut self) -> Option<Event> {
        let (t, ev) = self.events.pop().filter(|&(t, _)| t <= self.cfg.max_sim_time_s)?;
        self.clock = t;
        Some(ev)
    }

    /// End the run over `steps`. The trace and audit come from the first
    /// step (the disaggregated sides record neither); `stranded` counts
    /// unfinished requests held outside every step.
    pub(crate) fn into_output(
        self,
        steps: impl IntoIterator<Item = SchedulerStep>,
        aborted: usize,
        stranded: usize,
    ) -> SimOutput {
        let mut out = SimOutput {
            recorder: self.recorder,
            token_trace: self.token_trace,
            busy: self.busy,
            end_time_s: self.clock,
            sched_iterations: 0,
            preemptions: 0,
            aborted,
            unfinished: stranded,
            final_kv_free_rate: 1.0,
            trace: Default::default(),
            audit: None,
        };
        for (i, step) in steps.into_iter().enumerate() {
            out.sched_iterations += step.batches() as usize;
            out.preemptions += step.preemptions();
            out.unfinished += step.pool.unfinished_count();
            out.final_kv_free_rate = out.final_kv_free_rate.min(step.kv.free_rate());
            if i == 0 {
                (out.trace, out.audit) = step.finish();
            }
        }
        out
    }
}

/// One group of stages fed by one scheduling step.
pub(crate) struct Pipeline<'a> {
    /// This pipeline's name in stage events.
    id: u8,
    exec: ExecutionModel,
    runtime: RuntimeModel,
    policy: &'a dyn SchedulePolicy,
    pub(crate) step: SchedulerStep,
    stage_busy: Vec<Option<u64>>,
    stage_queue: Vec<VecDeque<u64>>,
    batches: BTreeMap<u64, InFlightBatch>,
    /// Cluster index of this group's first GPU.
    first_gpu: usize,
    /// Per-stage execution-time multipliers (missing entries are 1.0).
    slowdown: &'a [f64],
}

impl<'a> Pipeline<'a> {
    pub(crate) fn new(
        id: u8,
        exec: ExecutionModel,
        runtime: RuntimeModel,
        policy: &'a dyn SchedulePolicy,
        step: SchedulerStep,
        first_gpu: usize,
        slowdown: &'a [f64],
    ) -> Self {
        let stages = exec.stage_count();
        Self {
            id,
            exec,
            runtime,
            policy,
            step,
            stage_busy: vec![None; stages],
            stage_queue: vec![VecDeque::new(); stages],
            batches: BTreeMap::new(),
            first_gpu,
            slowdown,
        }
    }

    /// Schedule micro-batches while stage 0 is free and pipeline slots
    /// remain — the paper's driver-worker loop.
    pub(crate) fn schedule(&mut self, sim: &mut Sim) {
        while !self.step.is_full() && self.stage_busy[0].is_none() && self.stage_queue[0].is_empty()
        {
            let proposal = self.step.propose(self.policy);
            let token_trace = sim.cfg.record_token_trace.then_some(&mut sim.token_trace);
            let scheduled =
                self.step.schedule(proposal, &mut sim.recorder, sim.clock, |_, plan, _, _| {
                    Ok::<_, Infallible>(InFlightBatch::new(plan, token_trace))
                });
            match scheduled {
                Scheduled::Batch { id, prepared } => {
                    self.batches.insert(id, prepared);
                    self.start_stage(sim, id, 0, sim.clock + self.runtime.sched_overhead_s);
                }
                Scheduled::Unstalled => {}
                Scheduled::Idle => return,
                Scheduled::Rejected(never) => match never {},
            }
        }
    }

    /// Run `batch` on `stage` from time `t`.
    fn start_stage(&mut self, sim: &mut Sim, batch: u64, stage: usize, t: f64) {
        let b = self.batches.get_mut(&batch).expect("unknown batch started");
        let slow = self.slowdown.get(stage).copied().unwrap_or(1.0);
        let dur = b.stage_duration(&self.exec, &self.runtime, stage, slow);
        self.stage_busy[stage] = Some(batch);
        if sim.cfg.record_utilization {
            for g in self.exec.busy_gpus(stage) {
                sim.busy.record(self.first_gpu + g, t, t + dur);
            }
        }
        self.step.trace.stage(t, t + dur, batch, stage);
        sim.events.push(t + dur, Event::StageDone { pipe: self.id, batch, stage });
    }

    /// `batch`'s activations reached `stage`: run it now, or queue it
    /// behind the stage's current work.
    pub(crate) fn accept(&mut self, sim: &mut Sim, batch: u64, stage: usize) {
        if self.stage_busy[stage].is_none() && self.stage_queue[stage].is_empty() {
            self.start_stage(sim, batch, stage, sim.clock);
        } else {
            self.stage_queue[stage].push_back(batch);
        }
    }

    /// `stage` finished `batch`: start the stage's next queued batch and
    /// hop `batch` to the next stage. When `batch` left the last stage,
    /// its tokens are recorded and `on_complete` sees its outcome before
    /// the pipeline schedules again; a free stage 0 schedules too.
    pub(crate) fn finish_stage(
        &mut self,
        sim: &mut Sim,
        batch: u64,
        stage: usize,
        on_complete: impl FnOnce(&mut Sim, &mut SchedulerStep, BatchOutcome),
    ) {
        debug_assert_eq!(self.stage_busy[stage], Some(batch));
        self.stage_busy[stage] = None;
        if let Some(next) = self.stage_queue[stage].pop_front() {
            self.start_stage(sim, next, stage, sim.clock);
        }
        if stage + 1 < self.exec.stage_count() {
            let b = self.batches.get_mut(&batch).expect("unknown batch in transit");
            let arrive = sim.clock + b.comm_time(&self.exec);
            self.step.trace.comm(sim.clock, arrive, batch, stage);
            sim.events.push(arrive, Event::BatchReady { pipe: self.id, batch, stage: stage + 1 });
        } else {
            self.batches.remove(&batch);
            let outcome = self.step.complete(sim.clock, batch).expect("unknown batch completed");
            for e in &outcome.emitted {
                sim.recorder.on_token(self.step.handle(e.slot), sim.clock);
            }
            on_complete(sim, &mut self.step, outcome);
            self.schedule(sim);
        }
        if stage == 0 {
            self.schedule(sim);
        }
    }
}

/// A micro-batch travelling through the pipeline.
#[derive(Debug, Clone)]
struct InFlightBatch {
    workload: BatchWorkload,
    /// Tokens sampled on the last stage: every decode, plus each prefill
    /// chunk that completes its prompt.
    sampled: usize,
    num_seqs: usize,
    /// Per-batch stage-time memo (the workload is frozen at schedule time,
    /// so stages sharing a (layers, lm-head) key share one evaluation).
    stage_times: StageTimeCache,
    /// Activation-transfer time, evaluated once on the first inter-stage
    /// hop (identical for every hop of this batch).
    comm_s: Option<f64>,
}

impl InFlightBatch {
    /// The batch of a committed plan, recording its token composition in
    /// `token_trace` when given.
    fn new(plan: &BatchPlan, token_trace: Option<&mut TokenTrace>) -> Self {
        if let Some(t) = token_trace {
            t.record(plan.prefill_tokens().get(), plan.decode_tokens().get());
        }
        Self {
            workload: to_workload(plan),
            sampled: plan.decode.len() + plan.prefill.iter().filter(|c| c.completes_prompt).count(),
            num_seqs: plan.num_seqs(),
            stage_times: StageTimeCache::new(),
            comm_s: None,
        }
    }

    /// Wall time of this batch on `stage` of `exec`: the (memoized)
    /// execution time stretched by `slowdown`, plus the runtime's
    /// per-stage overhead.
    fn stage_duration(
        &mut self,
        exec: &ExecutionModel,
        runtime: &RuntimeModel,
        stage: usize,
        slowdown: f64,
    ) -> f64 {
        let raw = exec.stage_time(stage, &self.workload, self.sampled, &mut self.stage_times);
        raw * slowdown + runtime.stage_overhead(self.num_seqs)
    }

    /// Activation-transfer time between consecutive stages (memoized).
    fn comm_time(&mut self, exec: &ExecutionModel) -> f64 {
        *self.comm_s.get_or_insert_with(|| exec.comm_time(&self.workload))
    }
}

/// Convert a committed plan into the cost model's batch description.
fn to_workload(plan: &BatchPlan) -> BatchWorkload {
    BatchWorkload {
        prefill: plan
            .prefill
            .iter()
            .map(|c| SequenceChunk::prefill(c.tokens.get(), c.context_before.get()))
            .collect(),
        decode: plan.decode.iter().map(|d| SequenceChunk::decode(d.context_before.get())).collect(),
    }
}
