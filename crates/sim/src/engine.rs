//! The discrete-event serving engine.
//!
//! One [`SimEngine`] replays a workload trace through a scheduling policy
//! on a modelled cluster. The mechanics mirror the paper's runtime:
//!
//! * the driver (stage 0's host) schedules a fresh micro-batch whenever
//!   stage 0 is free and fewer than `#PP_depth` micro-batches are in
//!   flight — the inter-batch dependency of §2.4,
//! * a micro-batch flows through stages in order, each transition paying
//!   the activation-transfer time on the interconnect — the inter-stage
//!   dependency,
//! * KV is allocated at schedule time (Fig. 6: "KV cache is allocated for
//!   prefill tokens prior to the execution of each micro-batch"), decode
//!   steps may preempt the latest-arrival sequence when the cache is full,
//!   and prefill chunks are trimmed to the free space,
//! * output tokens are emitted when a batch leaves the last stage.
//!
//! Virtual time, deterministic event ordering and seeded workloads make
//! every simulation bit-reproducible.

use std::collections::{BTreeMap, VecDeque};
use std::convert::Infallible;

use gllm_core::{BatchPlan, RequestPool, SchedulePolicy};
use gllm_kvcache::{Blocks, KvCacheManager, Tokens};
use gllm_metrics::{
    AuditReport, BusyTracker, MetricsRecorder, PipelineTrace, Scheduled, SchedulerStep,
    TokenTrace,
};
use gllm_model::{
    BatchWorkload, CostModel, LinkSpec, PipelinePartition, SequenceChunk, StageTimeCache,
};
use gllm_workload::Trace;

use crate::event::{Event, EventQueue};
use crate::runtime_model::RuntimeModel;

/// Engine knobs independent of the system under test.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Hard stop on virtual time (stragglers after this are abandoned).
    pub max_sim_time_s: f64,
    /// Record the per-iteration token trace (Figs. 1, 4b).
    pub record_token_trace: bool,
    /// Record per-GPU busy intervals (Fig. 4a).
    pub record_utilization: bool,
    /// Chunked pipeline parallelism (§3.4's CPP integration): a request's
    /// next prefill chunk may be scheduled while earlier chunks are still
    /// in later pipeline stages, exploiting intra-request parallelism for
    /// long prompts.
    pub enable_cpp: bool,
    /// Fault injection: multiply stage `s`'s execution time by
    /// `stage_slowdown[s]` (missing entries default to 1.0). Models a
    /// straggler GPU / thermal throttling — the *inter-stage* imbalance the
    /// paper leaves to future work (§2.4); the probe quantifies how bubbles
    /// amplify around a slow stage.
    pub stage_slowdown: Vec<f64>,
    /// Run the invariant auditor on every schedule/complete transition
    /// (cheap: O(plan) per batch). On by default so every test and bench
    /// run cross-checks KV accounting, pipeline depth, budget conformance
    /// and FCFS admission.
    pub audit: bool,
    /// Record the structured per-batch pipeline event log (schedule /
    /// stage / comm / complete / preempt) for Chrome-trace export. Off by
    /// default: stage-level spans are bulky on long runs.
    pub record_pipeline_trace: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            max_sim_time_s: 36_000.0,
            record_token_trace: true,
            record_utilization: true,
            enable_cpp: false,
            stage_slowdown: Vec::new(),
            audit: true,
            record_pipeline_trace: false,
        }
    }
}

/// How micro-batches execute on the hardware.
#[derive(Debug, Clone)]
pub enum ExecutionModel {
    /// Pipeline parallelism: one stage per GPU, activations move over
    /// `link` between consecutive stages.
    Pipeline {
        /// Per-GPU latency model.
        cost: CostModel,
        /// Layer-to-stage assignment.
        partition: PipelinePartition,
        /// Inter-stage interconnect.
        link: LinkSpec,
    },
    /// Tensor parallelism: every GPU cooperates on every batch; per-layer
    /// all-reduces run over `link`.
    Tensor {
        /// Per-GPU latency model.
        cost: CostModel,
        /// TP degree.
        tp: usize,
        /// All-reduce interconnect.
        link: LinkSpec,
    },
}

impl ExecutionModel {
    /// Number of sequential execution stages (1 for TP).
    pub fn stage_count(&self) -> usize {
        match self {
            ExecutionModel::Pipeline { partition, .. } => partition.depth(),
            ExecutionModel::Tensor { .. } => 1,
        }
    }

    /// The scheduler's `#PP_depth` (concurrent micro-batches).
    pub fn scheduler_depth(&self) -> usize {
        self.stage_count()
    }

    /// Total GPUs in the deployment.
    pub fn num_gpus(&self) -> usize {
        match self {
            ExecutionModel::Pipeline { partition, .. } => partition.depth(),
            ExecutionModel::Tensor { tp, .. } => *tp,
        }
    }

    /// Execution time of `batch` on `stage` (`sampled` tokens hit the LM
    /// head on the final stage), memoized through `cache`. The cache must
    /// be dedicated to this `(execution model, batch)` pair — the engine
    /// keeps one per in-flight micro-batch. Tensor execution has a single
    /// stage (one evaluation per batch), so it bypasses the cache.
    pub fn stage_time(
        &self,
        stage: usize,
        batch: &BatchWorkload,
        sampled: usize,
        cache: &mut StageTimeCache,
    ) -> f64 {
        match self {
            ExecutionModel::Pipeline { cost, partition, .. } => {
                let lm_head = if stage + 1 == partition.depth() { sampled } else { 0 };
                cache.stage_forward_time(cost, partition.layers_of(stage), batch, lm_head)
            }
            ExecutionModel::Tensor { cost, tp, link } => cost.tp_forward_time(batch, *tp, link),
        }
    }

    /// Activation-transfer time between consecutive stages.
    pub fn comm_time(&self, batch: &BatchWorkload) -> f64 {
        match self {
            ExecutionModel::Pipeline { cost, link, .. } => {
                link.p2p_time(cost.activation_bytes(batch))
            }
            ExecutionModel::Tensor { .. } => 0.0,
        }
    }

    /// GPUs kept busy by `stage`.
    fn busy_gpus(&self, stage: usize) -> std::ops::Range<usize> {
        match self {
            ExecutionModel::Pipeline { .. } => stage..stage + 1,
            ExecutionModel::Tensor { tp, .. } => 0..*tp,
        }
    }
}

/// A micro-batch travelling through the pipeline.
#[derive(Debug, Clone)]
pub(crate) struct InFlightBatch {
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
    pub(crate) fn new(plan: &BatchPlan, token_trace: Option<&mut TokenTrace>) -> Self {
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
    pub(crate) fn stage_duration(
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
    pub(crate) fn comm_time(&mut self, exec: &ExecutionModel) -> f64 {
        *self.comm_s.get_or_insert_with(|| exec.comm_time(&self.workload))
    }
}

/// Raw results of one simulation.
#[derive(Debug)]
pub struct SimOutput {
    /// Per-request metric timelines.
    pub recorder: MetricsRecorder,
    /// Per-iteration batched token composition.
    pub token_trace: TokenTrace,
    /// Per-GPU busy intervals.
    pub busy: BusyTracker,
    /// Virtual time at which the last event was processed.
    pub end_time_s: f64,
    /// Micro-batches scheduled.
    pub sched_iterations: usize,
    /// Total preemption events (evictions).
    pub preemptions: u64,
    /// Requests rejected because they could never fit in KV.
    pub aborted: usize,
    /// Requests still unfinished when the run ended (0 on a clean drain).
    pub unfinished: usize,
    /// KV free rate at the end of the run (1.0 on a clean drain — anything
    /// less with `unfinished == 0` indicates a leak).
    pub final_kv_free_rate: f64,
    /// Structured pipeline event log (empty unless
    /// `record_pipeline_trace` was set).
    pub trace: PipelineTrace,
    /// Invariant-audit result (`None` when auditing was disabled).
    pub audit: Option<AuditReport>,
}

/// The discrete-event serving engine. Construct with [`SimEngine::new`] and
/// consume with [`SimEngine::run`].
pub struct SimEngine<'a> {
    trace: &'a Trace,
    policy: &'a dyn SchedulePolicy,
    exec: ExecutionModel,
    runtime: RuntimeModel,
    cfg: &'a EngineConfig,

    clock: f64,
    events: EventQueue,
    step: SchedulerStep,

    stage_busy: Vec<Option<u64>>,
    stage_queue: Vec<VecDeque<u64>>,
    batches: BTreeMap<u64, InFlightBatch>,

    recorder: MetricsRecorder,
    token_trace: TokenTrace,
    busy: BusyTracker,
    aborted: usize,
}

impl<'a> SimEngine<'a> {
    /// Build an engine over `kv_blocks` KV blocks of `block_size` tokens.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        trace: &'a Trace,
        policy: &'a dyn SchedulePolicy,
        exec: ExecutionModel,
        runtime: RuntimeModel,
        kv_blocks: usize,
        block_size: usize,
        max_seqs_per_batch: usize,
        cfg: &'a EngineConfig,
    ) -> Self {
        let stages = exec.stage_count();
        let num_gpus = exec.num_gpus();
        let step = SchedulerStep::new(
            RequestPool::new(max_seqs_per_batch).with_cpp(cfg.enable_cpp),
            KvCacheManager::new(Blocks(kv_blocks), Tokens(block_size)),
            exec.scheduler_depth(),
            cfg.audit,
            cfg.record_pipeline_trace,
        );
        // Pre-size the hot buffers: the queue is seeded with one arrival
        // per request (plus a small in-flight margin), and each request
        // contributes roughly one token-trace point / stage interval per
        // output token — a cheap lower bound that absorbs the early
        // doubling reallocations.
        let n = trace.requests.len();
        let events = EventQueue::with_capacity(n + 2 * stages + 8);
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
        Self {
            trace,
            policy,
            exec,
            runtime,
            cfg,
            clock: 0.0,
            events,
            step,
            stage_busy: vec![None; stages],
            stage_queue: vec![VecDeque::new(); stages],
            batches: BTreeMap::new(),
            recorder: MetricsRecorder::new(),
            token_trace,
            busy,
            aborted: 0,
        }
    }

    /// Run to completion (or the time limit) and return the raw output.
    pub fn run(mut self) -> SimOutput {
        for (i, _) in self.trace.requests.iter().enumerate() {
            self.events
                .push(self.trace.requests[i].arrival_s, Event::Arrival { trace_index: i });
        }
        while let Some((t, ev)) = self.events.pop() {
            if t > self.cfg.max_sim_time_s {
                break;
            }
            self.clock = t;
            match ev {
                Event::Arrival { trace_index } => self.on_arrival(trace_index),
                Event::BatchReady { batch, stage } => self.on_batch_ready(batch, stage),
                Event::StageDone { batch, stage } => self.on_stage_done(batch, stage),
            }
        }
        let step = self.step;
        let (unfinished, final_kv_free_rate) = (step.pool.unfinished_count(), step.kv.free_rate());
        let (sched_iterations, preemptions) = (step.batches() as usize, step.preemptions());
        let (trace, audit) = step.finish();
        SimOutput {
            recorder: self.recorder,
            token_trace: self.token_trace,
            busy: self.busy,
            end_time_s: self.clock,
            sched_iterations,
            preemptions,
            aborted: self.aborted,
            unfinished,
            final_kv_free_rate,
            trace,
            audit,
        }
    }

    fn on_arrival(&mut self, trace_index: usize) {
        let r = &self.trace.requests[trace_index];
        self.recorder.on_arrival(r.id, self.clock, r.prompt_len);
        // A request whose full context can never fit is rejected up front
        // (a real engine would return an error to the client).
        if !self.step.arrive(r.id, r.prompt_len, r.output_len) {
            self.aborted += 1;
            return;
        }
        self.try_schedule();
    }

    fn on_batch_ready(&mut self, batch: u64, stage: usize) {
        if self.stage_busy[stage].is_none() && self.stage_queue[stage].is_empty() {
            self.start_stage(batch, stage, self.clock);
        } else {
            self.stage_queue[stage].push_back(batch);
        }
    }

    fn on_stage_done(&mut self, batch: u64, stage: usize) {
        debug_assert_eq!(self.stage_busy[stage], Some(batch));
        self.stage_busy[stage] = None;
        if let Some(next) = self.stage_queue[stage].pop_front() {
            self.start_stage(next, stage, self.clock);
        }
        if stage + 1 < self.exec.stage_count() {
            let b = self.batches.get_mut(&batch).expect("unknown batch in transit");
            let comm = b.comm_time(&self.exec);
            self.step.trace.comm(self.clock, self.clock + comm, batch, stage);
            self.events
                .push(self.clock + comm, Event::BatchReady { batch, stage: stage + 1 });
        } else {
            self.complete_batch(batch);
        }
        // Stage 0 freeing (or a completion) may unblock the scheduler.
        if stage == 0 {
            self.try_schedule();
        }
    }

    fn start_stage(&mut self, batch: u64, stage: usize, t: f64) {
        let (dur, gpus) = {
            let b = self.batches.get_mut(&batch).expect("unknown batch started");
            let slow = self.cfg.stage_slowdown.get(stage).copied().unwrap_or(1.0);
            let dur = b.stage_duration(&self.exec, &self.runtime, stage, slow);
            (dur, self.exec.busy_gpus(stage))
        };
        self.stage_busy[stage] = Some(batch);
        if self.cfg.record_utilization {
            for g in gpus {
                self.busy.record(g, t, t + dur);
            }
        }
        self.step.trace.stage(t, t + dur, batch, stage);
        self.events.push(t + dur, Event::StageDone { batch, stage });
    }

    fn complete_batch(&mut self, batch: u64) {
        self.batches.remove(&batch);
        let outcome = self.step.complete(self.clock, batch).expect("unknown batch completed");
        for e in &outcome.emitted {
            self.recorder.on_token(e.seq, self.clock);
        }
        for &(id, _) in &outcome.finished {
            self.recorder.on_finish(id, self.clock);
        }
        self.try_schedule();
    }

    /// Schedule micro-batches while stage 0 is free and pipeline slots
    /// remain — the paper's driver-worker loop.
    fn try_schedule(&mut self) {
        while !self.step.is_full()
            && self.stage_busy[0].is_none()
            && self.stage_queue[0].is_empty()
        {
            let proposal = self.step.propose(self.policy);
            let (now, record_tokens) = (self.clock, self.cfg.record_token_trace);
            let token_trace = &mut self.token_trace;
            let scheduled = self.step.schedule(proposal, &mut self.recorder, now, |_, plan, _, _| {
                Ok::<_, Infallible>(InFlightBatch::new(plan, record_tokens.then_some(token_trace)))
            });
            match scheduled {
                Scheduled::Batch { id, prepared } => {
                    self.batches.insert(id, prepared);
                    self.start_stage(id, 0, self.clock + self.runtime.sched_overhead_s);
                }
                Scheduled::Unstalled => {}
                Scheduled::Idle => return,
                Scheduled::Rejected(never) => match never {},
            }
        }
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
        decode: plan
            .decode
            .iter()
            .map(|d| SequenceChunk::decode(d.context_before.get()))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gllm_core::sarathi::SarathiServe;
    use gllm_core::throttle::TokenThrottle;
    use gllm_core::ScheduleView;
    use gllm_metrics::ServingReport;
    use gllm_model::{ClusterSpec, GpuSpec, ModelConfig};
    use gllm_workload::{ArrivalProcess, Dataset};

    fn small_exec(stages: usize) -> ExecutionModel {
        let model = ModelConfig::qwen2_5_32b();
        let cost = CostModel::new(model.clone(), GpuSpec::l20_48g());
        ExecutionModel::Pipeline {
            cost,
            partition: PipelinePartition::even(model.num_layers, stages),
            link: LinkSpec::pcie(),
        }
    }

    fn burst_trace(n: usize, prompt: usize, output: usize) -> Trace {
        Trace::synthesize(
            Dataset::Fixed { prompt, output },
            ArrivalProcess::Burst,
            1.0,
            n,
            0,
        )
    }

    fn run(
        trace: &Trace,
        policy: &dyn SchedulePolicy,
        exec: ExecutionModel,
        kv_blocks: usize,
    ) -> SimOutput {
        SimEngine::new(
            trace,
            policy,
            exec,
            RuntimeModel::gllm(),
            kv_blocks,
            16,
            1024,
            &EngineConfig::default(),
        )
        .run()
    }

    #[test]
    fn all_requests_finish_and_emit_their_tokens() {
        let trace = burst_trace(8, 200, 12);
        let out = run(&trace, &TokenThrottle::default(), small_exec(4), 4096);
        let report = ServingReport::from_recorder(&out.recorder);
        assert_eq!(report.finished_requests, 8);
        let tokens: usize = out
            .recorder
            .timelines()
            .iter()
            .map(|(_, t)| t.output_tokens)
            .sum();
        assert_eq!(tokens, 8 * 12);
        assert_eq!(out.aborted, 0);
    }

    #[test]
    fn kv_is_fully_returned_after_drain() {
        let trace = burst_trace(6, 100, 5);
        let policy = SarathiServe::default();
        let cfg = EngineConfig::default();
        let mut engine = SimEngine::new(
            &trace,
            &policy,
            small_exec(2),
            RuntimeModel::vllm(),
            2048,
            16,
            1024,
            &cfg,
        );
        // Run manually so we can inspect the KV afterwards.
        for (i, r) in trace.requests.iter().enumerate() {
            engine.events.push(r.arrival_s, Event::Arrival { trace_index: i });
        }
        while let Some((t, ev)) = engine.events.pop() {
            engine.clock = t;
            match ev {
                Event::Arrival { trace_index } => engine.on_arrival(trace_index),
                Event::BatchReady { batch, stage } => engine.on_batch_ready(batch, stage),
                Event::StageDone { batch, stage } => engine.on_stage_done(batch, stage),
            }
        }
        assert!(!engine.step.pool.has_work());
        assert_eq!(engine.step.kv.free_rate(), 1.0, "KV leaked");
        assert_eq!(engine.step.in_flight(), 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let trace = Trace::paper_online(Dataset::ShareGpt, 2.0, 7);
        let a = run(&trace, &TokenThrottle::default(), small_exec(4), 8192);
        let b = run(&trace, &TokenThrottle::default(), small_exec(4), 8192);
        let ra = ServingReport::from_recorder(&a.recorder);
        let rb = ServingReport::from_recorder(&b.recorder);
        assert_eq!(ra, rb);
        assert_eq!(a.token_trace, b.token_trace);
    }

    #[test]
    fn pipeline_keeps_at_most_depth_batches_in_flight() {
        // Indirect check: with depth 4 and plenty of decodes, gLLM's Eq. 4
        // spreads them; iterations must be at least ceil-divided.
        let trace = burst_trace(32, 64, 20);
        let out = run(&trace, &TokenThrottle::default(), small_exec(4), 8192);
        assert!(out.sched_iterations >= 32 * 20 / (32usize.div_ceil(4) * 4));
        let report = ServingReport::from_recorder(&out.recorder);
        assert_eq!(report.finished_requests, 32);
    }

    #[test]
    fn oversized_request_is_aborted_not_wedged() {
        let mut trace = burst_trace(2, 100, 5);
        trace.requests[1].prompt_len = 100_000; // cannot fit in 64 blocks
        let out = run(&trace, &TokenThrottle::default(), small_exec(2), 64);
        assert_eq!(out.aborted, 1);
        let report = ServingReport::from_recorder(&out.recorder);
        assert_eq!(report.finished_requests, 1);
    }

    #[test]
    fn kv_pressure_triggers_preemption_but_everything_still_finishes() {
        // 16 blocks × 16 tokens = 256 tokens of KV for 4 requests needing
        // 4 × (40 + 30) = 280 tokens at peak → someone must be preempted.
        let trace = burst_trace(4, 40, 30);
        let out = run(&trace, &SarathiServe::default(), small_exec(2), 16);
        let report = ServingReport::from_recorder(&out.recorder);
        assert_eq!(report.finished_requests, 4);
        assert!(out.preemptions > 0, "expected KV preemptions");
    }

    #[test]
    fn tensor_parallel_engine_completes_work() {
        let model = ModelConfig::qwen2_5_32b();
        let cluster = ClusterSpec::intra_node_l20(4);
        let exec = ExecutionModel::Tensor {
            cost: CostModel::new(model, GpuSpec::l20_48g()),
            tp: 4,
            link: cluster.link,
        };
        let trace = burst_trace(8, 128, 8);
        let out = run(&trace, &SarathiServe::default(), exec, 4096);
        let report = ServingReport::from_recorder(&out.recorder);
        assert_eq!(report.finished_requests, 8);
    }

    #[test]
    fn utilization_and_token_trace_are_recorded() {
        let trace = burst_trace(8, 256, 10);
        let out = run(&trace, &TokenThrottle::default(), small_exec(4), 8192);
        assert!(!out.token_trace.is_empty());
        assert!(out.busy.mean_utilization(out.end_time_s) > 0.05);
    }

    #[test]
    fn cpp_pipelines_a_long_prompt_and_cuts_ttft() {
        // One 16K-token prompt: classic chunking serialises chunk (i+1)
        // behind chunk i's full pipeline traversal; CPP overlaps them.
        let trace = burst_trace(1, 16_384, 4);
        let policy = TokenThrottle::default();
        let run_with = |cpp: bool| {
            SimEngine::new(
                &trace, &policy, small_exec(4), RuntimeModel::gllm(), 4096, 16, 1024,
                &EngineConfig { enable_cpp: cpp, ..Default::default() },
            )
            .run()
        };
        let classic = run_with(false);
        let cpp = run_with(true);
        let t_classic = ServingReport::from_recorder(&classic.recorder).mean_ttft_s;
        let t_cpp = ServingReport::from_recorder(&cpp.recorder).mean_ttft_s;
        assert!(
            t_cpp < t_classic * 0.55,
            "CPP should pipeline chunks: {t_cpp} vs {t_classic}"
        );
        assert_eq!(cpp.unfinished, 0);
        assert_eq!(cpp.final_kv_free_rate, 1.0);
    }

    #[test]
    fn clean_drain_returns_all_kv() {
        let trace = burst_trace(10, 150, 15);
        let out = run(&trace, &TokenThrottle::default(), small_exec(4), 4096);
        assert_eq!(out.unfinished, 0);
        assert_eq!(out.final_kv_free_rate, 1.0, "KV leaked");
    }

    #[test]
    fn slow_stage_injection_stretches_the_pipeline() {
        let trace = burst_trace(8, 200, 16);
        let policy = TokenThrottle::default();
        let healthy = SimEngine::new(
            &trace, &policy, small_exec(4), RuntimeModel::gllm(), 8192, 16, 1024,
            &EngineConfig::default(),
        )
        .run();
        let degraded = SimEngine::new(
            &trace, &policy, small_exec(4), RuntimeModel::gllm(), 8192, 16, 1024,
            &EngineConfig { stage_slowdown: vec![1.0, 1.0, 2.0, 1.0], ..Default::default() },
        )
        .run();
        let h = ServingReport::from_recorder(&healthy.recorder);
        let d = ServingReport::from_recorder(&degraded.recorder);
        assert_eq!(d.finished_requests, 8, "slow stage must not lose work");
        // A 2x slower stage gates the whole pipeline: E2EL rises by well
        // over the 25% a perfectly-overlapped system would see.
        assert!(
            d.mean_e2el_s > h.mean_e2el_s * 1.4,
            "healthy {} vs degraded {}",
            h.mean_e2el_s,
            d.mean_e2el_s
        );
        // And the healthy stages go idle waiting for the straggler.
        assert!(degraded.busy.mean_utilization(degraded.end_time_s)
            < healthy.busy.mean_utilization(healthy.end_time_s));
    }

    #[test]
    fn sarathi_trace_is_more_volatile_than_gllm_under_bursts() {
        // The Fig. 1 phenomenon in miniature: bursty arrivals produce
        // bigger token-count swings under Sarathi than under throttling.
        let trace = Trace::paper_online(Dataset::ShareGpt, 6.0, 3);
        let sarathi = run(&trace, &SarathiServe::default(), small_exec(4), 8192);
        let gllm = run(&trace, &TokenThrottle::default(), small_exec(4), 8192);
        assert!(
            sarathi.token_trace.total_tokens_cv() > gllm.token_trace.total_tokens_cv(),
            "sarathi CV {} vs gLLM CV {}",
            sarathi.token_trace.total_tokens_cv(),
            gllm.token_trace.total_tokens_cv()
        );
    }

    #[test]
    fn drained_runs_audit_clean_for_every_policy() {
        // Satellite leak check: the auditor's shadow KV accounting must
        // agree with the cache on every transition AND at drain time.
        let trace = burst_trace(10, 300, 8);
        let policies: Vec<Box<dyn SchedulePolicy>> = vec![
            Box::new(TokenThrottle::default()),
            Box::new(SarathiServe::default()),
        ];
        for policy in &policies {
            let out = run(&trace, policy.as_ref(), small_exec(4), 4096);
            let audit = out.audit.expect("audit defaults on");
            audit.assert_clean(policy.name());
            assert!(audit.batches_checked > 0, "auditor saw no batches");
        }
    }

    #[test]
    fn audit_survives_kv_pressure_and_preemption() {
        // Preemption (recompute eviction) is the hardest path for shadow
        // accounting: evicted sequences give back their blocks and later
        // re-prefill from scratch without tripping FCFS first-start checks.
        let trace = burst_trace(16, 400, 30);
        let out = run(&trace, &SarathiServe::default(), small_exec(2), 96);
        assert!(out.preemptions > 0, "test must exercise preemption");
        out.audit.expect("audit defaults on").assert_clean("preemption");
    }

    /// A deliberately broken policy: plans prefill for KV it does not have
    /// (token-granular accounting, the pre-fix `TokenThrottle` bug) and
    /// publishes budget caps smaller than what it actually plans.
    struct BrokenPolicy;

    impl SchedulePolicy for BrokenPolicy {
        fn plan(&self, view: &ScheduleView) -> BatchPlan {
            use gllm_core::plan::PrefillChunk;
            use gllm_core::policy::take_decodes;
            let decode = take_decodes(&view.decodable, view.decodable.len());
            // Token-granular reservation: one token per decode slot, then
            // hand ALL remaining free tokens to prefill — ignores that each
            // decode at a block boundary claims a whole fresh block.
            let kv_left = view.kv_free_tokens.saturating_sub(Tokens(decode.len()));
            let prefill = view
                .waiting
                .first()
                .map(|w| PrefillChunk {
                    seq: w.seq,
                    slot: w.slot,
                    tokens: w.remaining_prefill.min(kv_left),
                    context_before: w.context_before,
                    completes_prompt: w.remaining_prefill <= kv_left,
                })
                .into_iter()
                .filter(|c| !c.tokens.is_zero())
                .collect();
            BatchPlan { prefill, decode }
        }

        fn budget_caps(&self, _view: &ScheduleView) -> Option<(Tokens, usize)> {
            // Published caps that the plans above routinely exceed.
            Some((Tokens(1), 0))
        }

        fn name(&self) -> &'static str {
            "broken"
        }
    }

    #[test]
    fn broken_policy_trips_the_auditor_end_to_end() {
        // Block size 16 with tight KV: token-granular decode reservation
        // must trip KvOvercommit, and the bogus caps trip BudgetConformance.
        let trace = burst_trace(8, 200, 40);
        let out = run(&trace, &BrokenPolicy, small_exec(2), 64);
        let audit = out.audit.expect("audit defaults on");
        assert!(
            !audit.is_clean(),
            "a policy that overcommits KV and violates its own caps must be caught"
        );
        let kinds: std::collections::HashSet<_> =
            audit.violations.iter().map(|v| v.invariant).collect();
        assert!(
            kinds.contains(&gllm_metrics::Invariant::BudgetConformance),
            "caps (1, 0) are exceeded by every nonempty plan: {kinds:?}"
        );
        assert!(
            kinds.contains(&gllm_metrics::Invariant::KvOvercommit),
            "token-granular decode reservation must overcommit blocks: {kinds:?}"
        );
    }

    #[test]
    fn pipeline_trace_records_spans_when_enabled() {
        let trace = burst_trace(4, 100, 6);
        let policy = TokenThrottle::default();
        let cfg = EngineConfig { record_pipeline_trace: true, ..Default::default() };
        let out = SimEngine::new(
            &trace,
            &policy,
            small_exec(2),
            RuntimeModel::gllm(),
            2048,
            16,
            1024,
            &cfg,
        )
        .run();
        assert!(out.trace.is_enabled());
        assert!(out.trace.stage_busy_total() > 0.0);
        let doc = out.trace.to_chrome_trace_string();
        assert!(doc.contains("\"traceEvents\""));
        // Default config records nothing (zero-cost when off).
        let off = run(&trace, &policy, small_exec(2), 2048);
        assert!(off.trace.events().is_empty());
    }
}
