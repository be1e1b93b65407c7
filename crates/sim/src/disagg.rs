//! Prefill/decode-disaggregated serving (Splitwise / DistServe style).
//!
//! The architecture the paper discusses as the main alternative (§1, §2):
//! prefill and decode run on *separate* GPU groups connected by KV-cache
//! transmission. Each request prefills on the prefill cluster (emitting its
//! first token), ships its KV cache across the interconnect, then decodes
//! on the decode cluster. This eliminates prefill/decode interference by
//! construction — at the cost the paper calls out: the GPU ratio between
//! the two groups must be chosen in advance, and a mismatch with the
//! workload's prefill:decode balance strands capacity on one side. The
//! `abl_disaggregation` bench quantifies exactly that sensitivity against
//! unified gLLM.
//!
//! Implementation: two pipeline groups driven by one deterministic event
//! queue. The prefill side runs Sarathi-style pure-prefill batching (there
//! are never decodes there); the decode side runs gLLM's Eq. 4 decode
//! spreading (DistServe's decode instances also batch aggressively).
//! Decode-side preemptions recompute on the decode cluster, as real
//! disaggregated systems do when the decode side runs out of KV.

use std::collections::{BTreeMap, VecDeque};
use std::convert::Infallible;

use gllm_core::sarathi::SarathiServe;
use gllm_core::throttle::TokenThrottle;
use gllm_core::{BatchOutcome, RequestPool, SchedulePolicy};
use gllm_kvcache::{KvCacheManager, Tokens};
use gllm_metrics::{BusyTracker, MetricsRecorder, Scheduled, SchedulerStep, TokenTrace};
use gllm_model::{CostModel, PipelinePartition};
use gllm_workload::Trace;

use crate::deployment::Deployment;
use crate::engine::{EngineConfig, ExecutionModel, InFlightBatch, SimOutput};
use crate::event::EventQueue;
use crate::runtime_model::RuntimeModel;

/// GPU split of a disaggregated deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DisaggConfig {
    /// GPUs dedicated to prefill (pipeline depth of the prefill group).
    pub prefill_gpus: usize,
    /// GPUs dedicated to decode (pipeline depth of the decode group).
    pub decode_gpus: usize,
}

impl DisaggConfig {
    /// Display name like `"Disagg 1P:3D"`.
    pub fn name(&self) -> String {
        format!("Disagg {}P:{}D", self.prefill_gpus, self.decode_gpus)
    }
}

#[derive(Debug, Clone, Copy)]
enum DEvent {
    Arrival { trace_index: usize },
    StageDone { side: usize, batch: u64, stage: usize },
    BatchReady { side: usize, batch: u64, stage: usize },
    TransferDone { seq: u64 },
}

/// One side's scheduler (auditing and tracing off) and pipeline.
struct PipeSide {
    exec: ExecutionModel,
    policy: Box<dyn SchedulePolicy>,
    step: SchedulerStep,
    stage_busy: Vec<Option<u64>>,
    stage_queue: Vec<VecDeque<u64>>,
    batches: BTreeMap<u64, InFlightBatch>,
    gpu_offset: usize,
}

const PREFILL: usize = 0;
const DECODE: usize = 1;

/// Both sides and the state they share: one event queue, clock and set
/// of observers.
struct Disagg<'a> {
    sides: [PipeSide; 2],
    runtime: RuntimeModel,
    cfg: &'a EngineConfig,
    events: EventQueue<DEvent>,
    clock: f64,
    recorder: MetricsRecorder,
    token_trace: TokenTrace,
    busy: BusyTracker,
}

impl Disagg<'_> {
    fn start_stage(&mut self, side: usize, batch: u64, stage: usize, t: f64) {
        let s = &mut self.sides[side];
        let b = s.batches.get_mut(&batch).expect("known batch");
        let dur = b.stage_duration(&s.exec, &self.runtime, stage, 1.0);
        s.stage_busy[stage] = Some(batch);
        if self.cfg.record_utilization {
            self.busy.record(s.gpu_offset + stage, t, t + dur);
        }
        self.events.push(t + dur, DEvent::StageDone { side, batch, stage });
    }

    /// Schedule micro-batches on `side` while its stage 0 is free and
    /// pipeline slots remain.
    fn try_schedule(&mut self, side: usize) {
        loop {
            let s = &mut self.sides[side];
            if s.step.is_full() || s.stage_busy[0].is_some() || !s.stage_queue[0].is_empty() {
                return;
            }
            let proposal = s.step.propose(s.policy.as_ref());
            let (now, recorder) = (self.clock, &mut self.recorder);
            let token_trace = self.cfg.record_token_trace.then_some(&mut self.token_trace);
            let scheduled = s.step.schedule(proposal, recorder, now, |_, plan, _, _| {
                Ok::<_, Infallible>(InFlightBatch::new(plan, token_trace))
            });
            match scheduled {
                Scheduled::Batch { id, prepared } => {
                    s.batches.insert(id, prepared);
                    self.start_stage(side, id, 0, self.clock + self.runtime.sched_overhead_s);
                }
                Scheduled::Unstalled => {}
                Scheduled::Idle => return,
                Scheduled::Rejected(never) => match never {},
            }
        }
    }

    fn on_batch_ready(&mut self, side: usize, batch: u64, stage: usize) {
        let s = &mut self.sides[side];
        if s.stage_busy[stage].is_none() && s.stage_queue[stage].is_empty() {
            self.start_stage(side, batch, stage, self.clock);
        } else {
            s.stage_queue[stage].push_back(batch);
        }
    }

    /// A stage finished `batch`: start the stage's next queued batch and
    /// move `batch` on. Returns the completion outcome when `batch` left
    /// the side's last stage.
    fn on_stage_done(&mut self, side: usize, batch: u64, stage: usize) -> Option<BatchOutcome> {
        let s = &mut self.sides[side];
        debug_assert_eq!(s.stage_busy[stage], Some(batch));
        s.stage_busy[stage] = None;
        if let Some(next) = s.stage_queue[stage].pop_front() {
            self.start_stage(side, next, stage, self.clock);
        }
        let s = &mut self.sides[side];
        if stage + 1 < s.exec.stage_count() {
            let comm = s.batches.get_mut(&batch).expect("known batch").comm_time(&s.exec);
            let ready = DEvent::BatchReady { side, batch, stage: stage + 1 };
            self.events.push(self.clock + comm, ready);
            return None;
        }
        s.batches.remove(&batch);
        Some(s.step.complete(self.clock, batch).expect("known batch"))
    }
}

/// Run `trace` on a disaggregated deployment of `deployment.model` over
/// `deployment.cluster`'s GPU type/link, split per `cfg`.
pub fn simulate_disaggregated(
    trace: &Trace,
    deployment: &Deployment,
    cfg: DisaggConfig,
    engine_cfg: &EngineConfig,
) -> SimOutput {
    assert!(cfg.prefill_gpus >= 1 && cfg.decode_gpus >= 1);
    assert_eq!(
        cfg.prefill_gpus + cfg.decode_gpus,
        deployment.cluster.num_gpus,
        "split must use the whole cluster"
    );
    let model = &deployment.model;

    let make_side = |gpus: usize, policy: Box<dyn SchedulePolicy>, offset: usize| {
        let partition = PipelinePartition::even(model.num_layers, gpus);
        let mut cluster = deployment.cluster.clone();
        cluster.num_gpus = gpus;
        let kv_tokens = cluster.pp_kv_token_capacity(model, &partition);
        let exec = ExecutionModel::Pipeline {
            cost: CostModel::new(model.clone(), cluster.gpu.clone()),
            partition,
            link: cluster.link.clone(),
        };
        let stages = exec.stage_count();
        let step = SchedulerStep::new(
            RequestPool::new(deployment.max_seqs_per_batch),
            KvCacheManager::from_token_capacity(
                Tokens(kv_tokens.max(1)),
                Tokens(deployment.block_size),
            ),
            exec.scheduler_depth(),
            false,
            false,
        );
        PipeSide {
            exec,
            policy,
            step,
            stage_busy: vec![None; stages],
            stage_queue: vec![VecDeque::new(); stages],
            batches: BTreeMap::new(),
            gpu_offset: offset,
        }
    };

    let mut events: EventQueue<DEvent> = EventQueue::new();
    for (i, r) in trace.requests.iter().enumerate() {
        events.push(r.arrival_s, DEvent::Arrival { trace_index: i });
    }
    let mut d = Disagg {
        sides: [
            make_side(cfg.prefill_gpus, Box::<SarathiServe>::default(), 0),
            make_side(cfg.decode_gpus, Box::<TokenThrottle>::default(), cfg.prefill_gpus),
        ],
        runtime: RuntimeModel::gllm(),
        cfg: engine_cfg,
        events,
        clock: 0.0,
        recorder: MetricsRecorder::new(),
        token_trace: TokenTrace::new(),
        busy: BusyTracker::new(deployment.cluster.num_gpus),
    };

    // Request book-keeping: (prompt_len, max_output) by id, and the KV
    // transfer cost between the clusters.
    let req_info: BTreeMap<u64, (usize, usize)> = trace
        .requests
        .iter()
        .map(|r| (r.id, (r.prompt_len, r.output_len)))
        .collect();
    let kv_bytes_per_token = model.kv_bytes_per_token();
    let mut pending_admits: VecDeque<u64> = VecDeque::new();
    let mut aborted = 0usize;

    while let Some((t, ev)) = d.events.pop() {
        if t > engine_cfg.max_sim_time_s {
            break;
        }
        d.clock = t;
        match ev {
            DEvent::Arrival { trace_index } => {
                let r = &trace.requests[trace_index];
                d.recorder.on_arrival(r.id, t, r.prompt_len);
                // The prefill side runs each request to its first token
                // only; the decode side must hold its whole context.
                if !d.sides[DECODE].step.fits(r.prompt_len, r.output_len)
                    || !d.sides[PREFILL].step.arrive(r.id, r.prompt_len, 1)
                {
                    aborted += 1;
                    continue;
                }
                d.try_schedule(PREFILL);
            }
            DEvent::BatchReady { side, batch, stage } => d.on_batch_ready(side, batch, stage),
            DEvent::StageDone { side, batch, stage } => {
                if let Some(outcome) = d.on_stage_done(side, batch, stage) {
                    for e in &outcome.emitted {
                        d.recorder.on_token(e.seq, t);
                    }
                    if side == PREFILL {
                        // Finishing on the prefill side = first token out,
                        // then ship the KV to the decode cluster.
                        debug_assert!(outcome.emitted.iter().all(|e| e.finished));
                        for &seq in &outcome.finished {
                            let (prompt_len, _) = req_info[&seq];
                            let bytes = prompt_len as u64 * kv_bytes_per_token;
                            let dt = deployment.cluster.link.p2p_time(bytes);
                            d.events.push(t + dt, DEvent::TransferDone { seq });
                        }
                    } else {
                        for &seq in &outcome.finished {
                            d.recorder.on_finish(seq, t);
                        }
                        // Freed KV may unblock queued transfers.
                        while let Some(&seq) = pending_admits.front() {
                            let (prompt_len, max_output) = req_info[&seq];
                            let step = &mut d.sides[DECODE].step;
                            if !admit_transferred(step, seq, prompt_len, max_output) {
                                break;
                            }
                            pending_admits.pop_front();
                        }
                    }
                    d.try_schedule(side);
                }
                if stage == 0 {
                    d.try_schedule(side);
                }
            }
            DEvent::TransferDone { seq } => {
                let (prompt_len, max_output) = req_info[&seq];
                if max_output <= 1 {
                    // Single-token request: already complete at prefill.
                    d.recorder.on_finish(seq, t);
                    continue;
                }
                if pending_admits.is_empty()
                    && admit_transferred(&mut d.sides[DECODE].step, seq, prompt_len, max_output)
                {
                    d.try_schedule(DECODE);
                } else {
                    pending_admits.push_back(seq);
                }
            }
        }
    }

    let [prefill, decode] = d.sides.map(|s| s.step);
    SimOutput {
        recorder: d.recorder,
        token_trace: d.token_trace,
        busy: d.busy,
        end_time_s: d.clock,
        sched_iterations: (prefill.batches() + decode.batches()) as usize,
        preemptions: prefill.preemptions() + decode.preemptions(),
        aborted,
        unfinished: prefill.pool.unfinished_count()
            + decode.pool.unfinished_count()
            + pending_admits.len(),
        final_kv_free_rate: prefill.kv.free_rate().min(decode.kv.free_rate()),
        trace: gllm_metrics::PipelineTrace::default(),
        audit: None,
    }
}

/// Admit a sequence whose prompt KV arrived from the prefill side, if the
/// decode side has room for it.
fn admit_transferred(
    step: &mut SchedulerStep,
    seq: u64,
    prompt_len: usize,
    max_output: usize,
) -> bool {
    if step.kv.append(seq, Tokens(prompt_len)).is_err() {
        return false;
    }
    step.pool.add_decoding(seq, prompt_len, 1, max_output);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use gllm_metrics::ServingReport;
    use gllm_model::{ClusterSpec, ModelConfig};
    use gllm_workload::{ArrivalProcess, Dataset};

    // 14B: the only paper model that fits a *single* L20, which asymmetric
    // splits (1P:3D, 3P:1D) require.
    fn deployment() -> Deployment {
        Deployment::new(ModelConfig::qwen2_5_14b(), ClusterSpec::intra_node_l20(4))
    }

    fn run(cfg: DisaggConfig, trace: &Trace) -> SimOutput {
        simulate_disaggregated(trace, &deployment(), cfg, &EngineConfig::default())
    }

    #[test]
    fn all_requests_finish_across_both_clusters() {
        let trace = Trace::synthesize(
            Dataset::Fixed { prompt: 300, output: 24 },
            ArrivalProcess::Burst,
            1.0,
            12,
            0,
        );
        let out = run(DisaggConfig { prefill_gpus: 2, decode_gpus: 2 }, &trace);
        let report = ServingReport::from_recorder(&out.recorder);
        assert_eq!(report.finished_requests, 12);
        let tokens: usize =
            out.recorder.timelines().iter().map(|(_, t)| t.output_tokens).sum();
        assert_eq!(tokens, 12 * 24);
        assert_eq!(out.unfinished, 0);
        assert_eq!(out.final_kv_free_rate, 1.0, "KV leaked on some side");
    }

    #[test]
    fn online_trace_completes_and_is_deterministic() {
        let trace = Trace::paper_online(Dataset::ShareGpt, 2.0, 5);
        let a = run(DisaggConfig { prefill_gpus: 1, decode_gpus: 3 }, &trace);
        let b = run(DisaggConfig { prefill_gpus: 1, decode_gpus: 3 }, &trace);
        let ra = ServingReport::from_recorder(&a.recorder);
        let rb = ServingReport::from_recorder(&b.recorder);
        assert_eq!(ra, rb);
        assert_eq!(ra.finished_requests, trace.len());
    }

    #[test]
    fn ratio_mismatch_starves_one_side() {
        // Prefill-heavy workload on a decode-heavy split vs a balanced
        // split: the wrong ratio must cost throughput.
        let trace = Trace::synthesize(
            Dataset::Fixed { prompt: 2000, output: 8 },
            ArrivalProcess::Poisson { rate: 2.0 },
            64.0,
            0,
            9,
        );
        let starved = run(DisaggConfig { prefill_gpus: 1, decode_gpus: 3 }, &trace);
        let matched = run(DisaggConfig { prefill_gpus: 3, decode_gpus: 1 }, &trace);
        let rs = ServingReport::from_recorder(&starved.recorder);
        let rm = ServingReport::from_recorder(&matched.recorder);
        assert!(
            rm.mean_ttft_s < rs.mean_ttft_s * 0.7,
            "matched split should prefill much faster: {} vs {}",
            rm.mean_ttft_s,
            rs.mean_ttft_s
        );
    }

    #[test]
    fn single_token_requests_finish_at_transfer() {
        let trace = Trace::synthesize(
            Dataset::Fixed { prompt: 64, output: 1 },
            ArrivalProcess::Burst,
            1.0,
            4,
            0,
        );
        let out = run(DisaggConfig { prefill_gpus: 2, decode_gpus: 2 }, &trace);
        let report = ServingReport::from_recorder(&out.recorder);
        assert_eq!(report.finished_requests, 4);
    }
}
