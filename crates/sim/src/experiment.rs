//! One-call experiment driver: trace + system + deployment → results.

use gllm_metrics::{AuditReport, MetricsRecorder, PipelineTrace, ServingReport, SloSpec, TokenTrace};
use gllm_model::CostModel;
use gllm_workload::Trace;

use crate::deployment::Deployment;
use crate::engine::{EngineConfig, ExecutionModel, SimEngine};
use crate::systems::{Parallelism, SystemConfig};

/// Everything one simulation produced.
#[derive(Debug)]
pub struct RunResult {
    /// System under test (display name).
    pub system: String,
    /// Aggregated serving metrics.
    pub report: ServingReport,
    /// Raw per-request timelines (for SLO sweeps).
    pub recorder: MetricsRecorder,
    /// Per-iteration batched token composition.
    pub token_trace: TokenTrace,
    /// Windowed GPU utilisation `(window_start_s, utilisation)`.
    pub utilization_series: Vec<(f64, f64)>,
    /// Mean GPU utilisation over the makespan.
    pub mean_utilization: f64,
    /// Virtual end time.
    pub end_time_s: f64,
    /// Micro-batches scheduled.
    pub sched_iterations: usize,
    /// KV preemption events.
    pub preemptions: u64,
    /// Requests rejected as unservable.
    pub aborted: usize,
    /// Structured per-batch pipeline events (empty unless
    /// [`EngineConfig::record_pipeline_trace`] was set).
    pub pipeline_trace: PipelineTrace,
    /// Invariant-audit report (None when [`EngineConfig::audit`] is off).
    pub audit: Option<AuditReport>,
}

impl RunResult {
    /// SLO attainment under `slo` for this run.
    pub fn slo_attainment(&self, slo: SloSpec) -> f64 {
        ServingReport::slo_attainment(&self.recorder, slo)
    }
}

/// Build the execution model a system uses on a deployment, after letting
/// `tweak` adjust the cost model (attention-term ablations, MoE variance).
pub fn execution_model_with(
    system: &SystemConfig,
    deployment: &Deployment,
    tweak: &dyn Fn(&mut CostModel),
) -> ExecutionModel {
    let mut cost = CostModel::new(deployment.model.clone(), deployment.cluster.gpu.clone());
    tweak(&mut cost);
    match system.parallelism {
        Parallelism::Pipeline => ExecutionModel::Pipeline {
            cost,
            partition: deployment.partition(),
            link: deployment.cluster.link.clone(),
        },
        Parallelism::Tensor => ExecutionModel::Tensor {
            cost,
            tp: deployment.cluster.num_gpus,
            link: deployment.cluster.link.clone(),
        },
    }
}

/// Build the execution model a system uses on a deployment.
pub fn execution_model(system: &SystemConfig, deployment: &Deployment) -> ExecutionModel {
    execution_model_with(system, deployment, &|_| {})
}

/// KV blocks available to a system on a deployment.
pub fn kv_blocks(system: &SystemConfig, deployment: &Deployment) -> usize {
    let tokens = match system.parallelism {
        Parallelism::Pipeline => deployment.pp_kv_tokens(),
        Parallelism::Tensor => deployment.tp_kv_tokens(),
    };
    deployment.kv_blocks(tokens)
}

/// Replay `trace` on `system`/`deployment` and reduce the results.
pub fn run_experiment(
    trace: &Trace,
    system: &SystemConfig,
    deployment: &Deployment,
    cfg: &EngineConfig,
) -> RunResult {
    run_experiment_with(trace, system, deployment, cfg, &|_| {})
}

/// [`run_experiment`] with a cost-model hook (used by ablation benches to
/// inject MoE variance or strip the quadratic attention term).
pub fn run_experiment_with(
    trace: &Trace,
    system: &SystemConfig,
    deployment: &Deployment,
    cfg: &EngineConfig,
    tweak: &dyn Fn(&mut CostModel),
) -> RunResult {
    let policy = system.policy.build();
    let exec = execution_model_with(system, deployment, tweak);
    // The engine borrows its config; only materialise a copy when the
    // system's CPP setting actually disagrees with the caller's config.
    let cpp_override;
    let engine_cfg = if cfg.enable_cpp == system.cpp {
        cfg
    } else {
        cpp_override = EngineConfig { enable_cpp: system.cpp, ..cfg.clone() };
        &cpp_override
    };
    let engine = SimEngine::new(
        trace,
        policy.as_ref(),
        exec,
        system.runtime.clone(),
        kv_blocks(system, deployment),
        deployment.block_size,
        deployment.max_seqs_per_batch,
        engine_cfg,
    );
    let out = engine.run();
    if let Some(audit) = &out.audit {
        audit.assert_clean(&format!("sim:{}", system.name));
    }
    let report = ServingReport::from_recorder(&out.recorder);
    let horizon = out.end_time_s.max(f64::MIN_POSITIVE);
    // The windowed series is only materialised when busy intervals were
    // recorded — an O(intervals × windows) reduction that sweeps skip.
    let utilization_series = if cfg.record_utilization {
        out.busy.utilization_series(horizon, horizon / 64.0)
    } else {
        Vec::new()
    };
    RunResult {
        system: system.name.clone(),
        report,
        utilization_series,
        mean_utilization: out.busy.mean_utilization(horizon),
        recorder: out.recorder,
        token_trace: out.token_trace,
        end_time_s: out.end_time_s,
        sched_iterations: out.sched_iterations,
        preemptions: out.preemptions,
        aborted: out.aborted,
        pipeline_trace: out.trace,
        audit: out.audit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gllm_model::{ClusterSpec, ModelConfig};
    use gllm_workload::Dataset;

    fn deployment() -> Deployment {
        Deployment::new(ModelConfig::qwen2_5_32b(), ClusterSpec::intra_node_l20(4))
    }

    #[test]
    fn all_paper_systems_complete_a_small_online_trace() {
        let trace = Trace::paper_online(Dataset::ShareGpt, 1.0, 11);
        for sys in SystemConfig::paper_main() {
            let r = run_experiment(&trace, &sys, &deployment(), &EngineConfig::default());
            assert_eq!(
                r.report.finished_requests,
                trace.len(),
                "{} left work behind",
                sys.name
            );
            assert!(r.report.throughput_tok_s > 0.0);
            assert!(r.mean_utilization > 0.0);
        }
    }

    #[test]
    fn gllm_beats_vllm_on_throughput_at_saturating_rate() {
        // The headline claim, in miniature: at a rate near saturation the
        // throttled pipeline sustains more tokens/s than the Sarathi one.
        let trace = Trace::paper_online(Dataset::ShareGpt, 8.0, 5);
        let d = deployment();
        let g = run_experiment(&trace, &SystemConfig::gllm(), &d, &EngineConfig::default());
        let v = run_experiment(&trace, &SystemConfig::vllm(), &d, &EngineConfig::default());
        assert!(
            g.report.throughput_tok_s > v.report.throughput_tok_s,
            "gLLM {} vs vLLM {}",
            g.report.throughput_tok_s,
            v.report.throughput_tok_s
        );
    }

    #[test]
    fn tensor_parallelism_wins_at_low_rate_intra_node() {
        // §4.2 point (5): SGLang achieves lower latency under low request
        // rates with fast interconnects.
        let trace = Trace::paper_online(Dataset::ShareGpt, 0.25, 2);
        let d = deployment();
        let s = run_experiment(&trace, &SystemConfig::sglang(), &d, &EngineConfig::default());
        let g = run_experiment(&trace, &SystemConfig::gllm(), &d, &EngineConfig::default());
        assert!(
            s.report.mean_e2el_s < g.report.mean_e2el_s,
            "SGLang {} vs gLLM {}",
            s.report.mean_e2el_s,
            g.report.mean_e2el_s
        );
    }

    #[test]
    fn utilization_series_is_skipped_when_recording_is_off() {
        let trace = Trace::paper_online(Dataset::ShareGpt, 1.0, 3);
        let d = deployment();
        let quiet = EngineConfig { record_utilization: false, ..EngineConfig::default() };
        let r = run_experiment(&trace, &SystemConfig::gllm(), &d, &quiet);
        assert!(r.utilization_series.is_empty());
        // Recording is a pure observer: the simulated outcome is unchanged.
        let loud = run_experiment(&trace, &SystemConfig::gllm(), &d, &EngineConfig::default());
        assert_eq!(r.end_time_s.to_bits(), loud.end_time_s.to_bits());
        assert_eq!(r.report, loud.report);
        assert!(!loud.utilization_series.is_empty());
    }

    #[test]
    fn cross_node_collapses_tensor_parallelism() {
        // §4.2 point (5), cross-node half: on the slow network TP pays per
        // layer and loses badly.
        let model = ModelConfig::qwen2_5_32b();
        let d = Deployment::new(model, ClusterSpec::cross_node_a100(4));
        let trace = Trace::paper_online(Dataset::ShareGpt, 1.0, 13);
        let s = run_experiment(&trace, &SystemConfig::sglang(), &d, &EngineConfig::default());
        let g = run_experiment(&trace, &SystemConfig::gllm(), &d, &EngineConfig::default());
        assert!(g.report.mean_e2el_s < s.report.mean_e2el_s);
    }
}
