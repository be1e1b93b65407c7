//! Request-rate sweeps: the x-axis of the paper's Figures 10, 12 and 14.

use gllm_metrics::SloSpec;
use gllm_sim::engine::EngineConfig;
use gllm_sim::sweep::parallel_map;
use gllm_sim::{run_experiment, Deployment, SystemConfig};
use gllm_workload::{Dataset, Trace};
use serde::Serialize;

/// One `(system, rate)` measurement.
#[derive(Debug, Clone, Serialize)]
pub struct RatePoint {
    /// System under test.
    pub system: String,
    /// Offered request rate (req/s).
    pub rate: f64,
    /// Mean time to first token (s).
    pub ttft_s: f64,
    /// Mean time per output token (s).
    pub tpot_s: f64,
    /// Mean end-to-end latency (s).
    pub e2el_s: f64,
    /// Input+output token throughput (tok/s).
    pub throughput: f64,
    /// SLO attainment if an SLO was supplied.
    pub slo_attainment: Option<f64>,
    /// Requests finished / submitted.
    pub finished: usize,
    /// Requests submitted.
    pub total: usize,
    /// Preemption events.
    pub preemptions: u64,
}

/// Run `systems × rates` on paired workloads (same seed per rate) and
/// collect the paper's metric set per point, fanning the independent
/// simulations across `jobs` worker threads. Points come back rate-major
/// (every system at rate 0, then rate 1, ...) — the same order the old
/// serial loop produced, byte-identical regardless of `jobs`.
pub fn sweep_rates(
    systems: &[SystemConfig],
    deployment: &Deployment,
    dataset: Dataset,
    rates: &[f64],
    seed: u64,
    slo: Option<SloSpec>,
    jobs: usize,
) -> Vec<RatePoint> {
    let cfg = EngineConfig {
        record_token_trace: false,
        record_utilization: false,
        ..EngineConfig::default()
    };
    sweep_rates_with_cfg(systems, deployment, dataset, rates, seed, slo, &cfg, jobs)
}

/// [`sweep_rates`] under an explicit engine config. The perf harness uses
/// this to time the sweeps with the auditor off as well as the recorders;
/// figure binaries should call [`sweep_rates`].
#[allow(clippy::too_many_arguments)]
pub fn sweep_rates_with_cfg(
    systems: &[SystemConfig],
    deployment: &Deployment,
    dataset: Dataset,
    rates: &[f64],
    seed: u64,
    slo: Option<SloSpec>,
    cfg: &EngineConfig,
    jobs: usize,
) -> Vec<RatePoint> {
    // Traces are shared across the systems at each rate, so build them once
    // up front instead of once per (system, rate) simulation.
    let traces: Vec<Trace> =
        rates.iter().map(|&rate| Trace::paper_online(dataset, rate, seed)).collect();
    let pairs: Vec<(usize, usize)> = (0..rates.len())
        .flat_map(|ri| (0..systems.len()).map(move |si| (ri, si)))
        .collect();
    parallel_map(&pairs, jobs, |_, &(ri, si)| {
        let sys = &systems[si];
        let rate = rates[ri];
        let r = run_experiment(&traces[ri], sys, deployment, cfg);
        RatePoint {
            system: sys.name.clone(),
            rate,
            ttft_s: r.report.mean_ttft_s,
            tpot_s: r.report.mean_tpot_s,
            e2el_s: r.report.mean_e2el_s,
            throughput: r.report.throughput_tok_s,
            slo_attainment: slo.map(|s| r.slo_attainment(s)),
            finished: r.report.finished_requests,
            total: r.report.total_requests,
            preemptions: r.preemptions,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gllm_model::{ClusterSpec, ModelConfig};

    #[test]
    fn sweep_produces_a_point_per_system_rate_pair() {
        let d = Deployment::new(ModelConfig::qwen2_5_14b(), ClusterSpec::intra_node_l20(2));
        let systems = [SystemConfig::gllm(), SystemConfig::vllm()];
        let pts = sweep_rates(&systems, &d, Dataset::ShareGpt, &[0.5, 1.0], 5, None, 1);
        assert_eq!(pts.len(), 4);
        assert!(pts.iter().all(|p| p.finished == p.total));
        assert!(pts.iter().all(|p| p.throughput > 0.0));
        // Rate-major order: both systems at 0.5 before either at 1.0.
        assert_eq!(pts[0].rate, 0.5);
        assert_eq!(pts[1].rate, 0.5);
        assert_eq!(pts[2].rate, 1.0);
        assert_eq!(pts[0].system, "gLLM");
        assert_eq!(pts[1].system, "vLLM");
    }
}
