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
//! Implementation: two `Pipeline`s — the same stage machinery the unified
//! engine drives — sharing one deterministic event queue, plus the KV
//! transfer between them. The prefill side runs Sarathi-style pure-prefill
//! batching (there are never decodes there); the decode side runs gLLM's
//! Eq. 4 decode spreading (DistServe's decode instances also batch
//! aggressively). Decode-side preemptions recompute on the decode cluster,
//! as real disaggregated systems do when the decode side runs out of KV.

use std::collections::{BTreeMap, VecDeque};

use gllm_core::sarathi::SarathiServe;
use gllm_core::throttle::TokenThrottle;
use gllm_core::{RequestPool, SchedulePolicy};
use gllm_kvcache::{KvCacheManager, Tokens};
use gllm_metrics::{SchedulerStep, TimelineHandle};
use gllm_model::{CostModel, PipelinePartition};
use gllm_workload::Trace;

use crate::deployment::Deployment;
use crate::engine::{EngineConfig, ExecutionModel, SimOutput};
use crate::event::Event;
use crate::pipeline::{Pipeline, Sim};
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

const PREFILL: u8 = 0;
const DECODE: u8 = 1;

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

    // The prefill side runs Sarathi-style pure-prefill batching, the
    // decode side gLLM's decode spreading; both keep auditing and tracing
    // off.
    let policies: [&dyn SchedulePolicy; 2] = [&SarathiServe::default(), &TokenThrottle::default()];
    let side = |id: u8, gpus: usize, first_gpu: usize| {
        let partition = PipelinePartition::even(model.num_layers, gpus);
        let mut cluster = deployment.cluster.clone();
        cluster.num_gpus = gpus;
        let kv_tokens = cluster.pp_kv_token_capacity(model, &partition);
        let exec = ExecutionModel::Pipeline {
            cost: CostModel::new(model.clone(), cluster.gpu.clone()),
            partition,
            link: cluster.link.clone(),
        };
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
        let policy = policies[usize::from(id)];
        Pipeline::new(id, exec, RuntimeModel::gllm(), policy, step, first_gpu, &[])
    };
    let mut pipes =
        [side(PREFILL, cfg.prefill_gpus, 0), side(DECODE, cfg.decode_gpus, cfg.prefill_gpus)];

    let gpus = deployment.cluster.num_gpus;
    let mut sim = Sim::new(engine_cfg, trace, gpus, gpus);

    // Request book-keeping: (prompt_len, max_output) by id, and the KV
    // transfer cost between the clusters.
    let req_info: BTreeMap<u64, (usize, usize)> = trace
        .requests
        .iter()
        .map(|r| (r.id, (r.prompt_len, r.output_len)))
        .collect();
    let kv_bytes_per_token = model.kv_bytes_per_token();
    let mut pending_admits: VecDeque<(u64, TimelineHandle)> = VecDeque::new();
    let mut aborted = 0usize;

    while let Some(ev) = sim.next_event() {
        let t = sim.clock;
        match ev {
            Event::Arrival { trace_index } => {
                let r = &trace.requests[trace_index];
                let handle = sim.recorder.on_arrival(r.id, t, r.prompt_len);
                // The prefill side runs each request to its first token
                // only; the decode side must hold its whole context.
                let [prefill, decode] = &mut pipes;
                if !decode.step.fits(r.prompt_len, r.output_len)
                    || !prefill.step.arrive(r.id, r.prompt_len, 1, handle)
                {
                    aborted += 1;
                    continue;
                }
                prefill.schedule(&mut sim);
            }
            Event::BatchReady { pipe, batch, stage } => {
                pipes[usize::from(pipe)].accept(&mut sim, batch, stage);
            }
            Event::StageDone { pipe: PREFILL, batch, stage } => {
                // Finishing on the prefill side = first token out, then
                // ship the KV to the decode cluster.
                pipes[usize::from(PREFILL)].finish_stage(
                    &mut sim,
                    batch,
                    stage,
                    |sim, step, outcome| {
                        debug_assert!(outcome.emitted.iter().all(|e| e.finished));
                        for &(seq, slot) in &outcome.finished {
                            let (prompt_len, _) = req_info[&seq];
                            let bytes = prompt_len as u64 * kv_bytes_per_token;
                            let dt = deployment.cluster.link.p2p_time(bytes);
                            let handle = step.handle(slot);
                            sim.events.push(t + dt, Event::TransferDone { seq, handle });
                        }
                    },
                );
            }
            Event::StageDone { pipe, batch, stage } => {
                pipes[usize::from(pipe)].finish_stage(
                    &mut sim,
                    batch,
                    stage,
                    |sim, step, outcome| {
                        for &(_, slot) in &outcome.finished {
                            sim.recorder.on_finish(step.handle(slot), t);
                        }
                        // Freed KV may unblock queued transfers.
                        while let Some(&(seq, handle)) = pending_admits.front() {
                            let (prompt_len, max_output) = req_info[&seq];
                            if !step.admit_transferred(seq, prompt_len, max_output, handle) {
                                break;
                            }
                            pending_admits.pop_front();
                        }
                    },
                );
            }
            Event::TransferDone { seq, handle } => {
                let (prompt_len, max_output) = req_info[&seq];
                if max_output <= 1 {
                    // Single-token request: already complete at prefill.
                    sim.recorder.on_finish(handle, t);
                    continue;
                }
                let decode = &mut pipes[usize::from(DECODE)];
                if pending_admits.is_empty()
                    && decode.step.admit_transferred(seq, prompt_len, max_output, handle)
                {
                    decode.schedule(&mut sim);
                } else {
                    pending_admits.push_back((seq, handle));
                }
            }
        }
    }

    let stranded = pending_admits.len();
    sim.into_output(pipes.map(|p| p.step), aborted, stranded)
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
