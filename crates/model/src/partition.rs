//! Pipeline stage partitioning and KV-cache capacity accounting.
//!
//! The Token Throttling scheduler's UT component (§3.1.2) is driven by the
//! KV-cache free rate, so the simulator must know exactly how many tokens of
//! KV cache a deployment can hold. This module assigns decoder layers to
//! pipeline stages, accounts each stage's weight footprint (including the
//! embedding table on the first stage and the LM head on the last) and
//! derives the cluster-wide KV token capacity — the minimum over stages,
//! since the paper's design shares one unified page table across all GPUs.

use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::comm::LinkSpec;
use crate::config::ModelConfig;
use crate::gpu::GpuSpec;

/// Assignment of decoder layers to pipeline stages.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelinePartition {
    /// Number of layers held by each stage, in pipeline order.
    pub stage_layers: Vec<usize>,
}

impl PipelinePartition {
    /// Split `num_layers` as evenly as possible across `stages`, giving the
    /// remainder to the earliest stages (vLLM's convention).
    pub fn even(num_layers: usize, stages: usize) -> Self {
        assert!(stages >= 1, "need at least one stage");
        assert!(
            num_layers >= stages,
            "cannot spread {num_layers} layers over {stages} stages"
        );
        let base = num_layers / stages;
        let extra = num_layers % stages;
        let stage_layers = (0..stages)
            .map(|s| base + usize::from(s < extra))
            .collect();
        Self { stage_layers }
    }

    /// Number of pipeline stages (the pipeline depth, `#PP_depth`).
    #[inline]
    pub fn depth(&self) -> usize {
        self.stage_layers.len()
    }

    /// Layers held by stage `s`.
    #[inline]
    pub fn layers_of(&self, s: usize) -> usize {
        self.stage_layers[s]
    }

    /// The absolute layer range of each stage, in pipeline order.
    pub fn layer_ranges(&self) -> Vec<Range<usize>> {
        let mut start = 0;
        self.stage_layers
            .iter()
            .map(|&n| {
                start += n;
                start - n..start
            })
            .collect()
    }

    /// Total layers across all stages.
    pub fn total_layers(&self) -> usize {
        self.stage_layers.iter().sum()
    }
}

/// Per-stage memory footprint and KV cost.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageResources {
    /// Bytes of model weights resident on this stage's GPU.
    pub weight_bytes: u64,
    /// Bytes of KV cache one token costs on this stage.
    pub kv_bytes_per_token: u64,
}

/// A homogeneous deployment: `num_gpus` identical GPUs joined by one link.
///
/// Used for both pipeline-parallel deployments (one stage per GPU) and
/// tensor-parallel deployments (one shard per GPU).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// GPU type (identical across the deployment).
    pub gpu: GpuSpec,
    /// Number of GPUs.
    pub num_gpus: usize,
    /// Interconnect between adjacent stages / TP ranks.
    pub link: LinkSpec,
    /// Fraction of device memory the engine may use (weights + KV), as the
    /// systems' `--gpu-memory-utilization` flag.
    pub gpu_memory_util: f64,
}

impl ClusterSpec {
    /// The paper's intra-node testbed: 4×L20 over PCIe.
    pub fn intra_node_l20(num_gpus: usize) -> Self {
        Self {
            gpu: GpuSpec::l20_48g(),
            num_gpus,
            link: LinkSpec::pcie(),
            gpu_memory_util: 0.9,
        }
    }

    /// The paper's cross-node testbed with A100-40G (14B/32B models):
    /// one GPU per node over the 73.28 Gbps simulated network.
    pub fn cross_node_a100(num_nodes: usize) -> Self {
        Self {
            gpu: GpuSpec::a100_40g(),
            num_gpus: num_nodes,
            link: LinkSpec::sim_network(),
            gpu_memory_util: 0.9,
        }
    }

    /// The paper's cross-node testbed with A800-80G (Llama-3.1-100B).
    pub fn cross_node_a800(num_nodes: usize) -> Self {
        Self {
            gpu: GpuSpec::a800_80g(),
            num_gpus: num_nodes,
            link: LinkSpec::sim_network(),
            gpu_memory_util: 0.9,
        }
    }

    /// Per-stage resources of a pipeline-parallel deployment of `model` on
    /// this cluster (stage 0 carries the embedding table, the last stage
    /// carries the LM head).
    pub fn pp_stage_resources(
        &self,
        model: &ModelConfig,
        partition: &PipelinePartition,
    ) -> Vec<StageResources> {
        assert_eq!(partition.depth(), self.num_gpus);
        let embed = (model.vocab_size * model.hidden_size * model.dtype_bytes) as u64;
        let head = if model.tie_embeddings { 0 } else { embed };
        (0..partition.depth())
            .map(|s| {
                let mut w = model.layer_weight_bytes(partition.layers_of(s));
                if s == 0 {
                    w += embed;
                }
                if s + 1 == partition.depth() {
                    w += head;
                }
                StageResources {
                    weight_bytes: w,
                    kv_bytes_per_token: model.kv_bytes_per_token_per_layer()
                        * partition.layers_of(s) as u64,
                }
            })
            .collect()
    }

    /// Cluster-wide KV token capacity under pipeline parallelism: the
    /// minimum over stages of `(usable memory − weights) / kv per token`.
    ///
    /// Returns 0 when any stage's weights alone exceed its memory budget
    /// (the deployment does not fit).
    pub fn pp_kv_token_capacity(
        &self,
        model: &ModelConfig,
        partition: &PipelinePartition,
    ) -> usize {
        let budget = (self.gpu.memory_bytes() as f64 * self.gpu_memory_util) as u64;
        self.pp_stage_resources(model, partition)
            .iter()
            .map(|r| {
                if r.weight_bytes >= budget {
                    0
                } else {
                    ((budget - r.weight_bytes) / r.kv_bytes_per_token) as usize
                }
            })
            .min()
            .unwrap_or(0)
    }

    /// Cluster-wide KV token capacity under tensor parallelism: weights and
    /// KV are both sharded `num_gpus` ways, so the aggregate capacity is
    /// `(num_gpus × usable − total weights) / kv per token`.
    pub fn tp_kv_token_capacity(&self, model: &ModelConfig) -> usize {
        let per_gpu = (self.gpu.memory_bytes() as f64 * self.gpu_memory_util) as u64;
        let total = per_gpu.saturating_mul(self.num_gpus as u64);
        let weights = model.total_params() * model.dtype_bytes as u64;
        if weights >= total {
            return 0;
        }
        ((total - weights) / model.kv_bytes_per_token()) as usize
    }

    /// Whether a pipeline-parallel deployment of `model` fits at all.
    pub fn pp_fits(&self, model: &ModelConfig, partition: &PipelinePartition) -> bool {
        self.pp_kv_token_capacity(model, partition) > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_partition_distributes_remainder_to_early_stages() {
        let p = PipelinePartition::even(10, 4);
        assert_eq!(p.stage_layers, vec![3, 3, 2, 2]);
        assert_eq!(p.total_layers(), 10);
        assert_eq!(p.depth(), 4);
        assert_eq!(p.layer_ranges(), vec![0..3, 3..6, 6..8, 8..10]);
    }

    #[test]
    fn even_partition_exact_division() {
        let p = PipelinePartition::even(64, 4);
        assert_eq!(p.stage_layers, vec![16; 4]);
    }

    #[test]
    #[should_panic(expected = "cannot spread")]
    fn partition_rejects_more_stages_than_layers() {
        PipelinePartition::even(2, 4);
    }

    #[test]
    fn qwen32b_fits_on_4xl20_with_kv_headroom() {
        // The paper's main intra-node configuration must be feasible.
        let cluster = ClusterSpec::intra_node_l20(4);
        let model = ModelConfig::qwen2_5_32b();
        let p = PipelinePartition::even(model.num_layers, 4);
        let cap = cluster.pp_kv_token_capacity(&model, &p);
        assert!(cap > 50_000, "KV capacity too small: {cap} tokens");
    }

    #[test]
    fn llama100b_fits_on_4xa800_but_not_4xa100() {
        let model = ModelConfig::llama3_1_100b();
        let p = PipelinePartition::even(model.num_layers, 4);
        assert!(ClusterSpec::cross_node_a800(4).pp_fits(&model, &p));
        assert!(!ClusterSpec::cross_node_a100(4).pp_fits(&model, &p));
    }

    #[test]
    fn first_stage_carries_embedding_weight() {
        let cluster = ClusterSpec::intra_node_l20(4);
        let model = ModelConfig::qwen2_5_32b();
        let p = PipelinePartition::even(model.num_layers, 4);
        let res = cluster.pp_stage_resources(&model, &p);
        assert!(res[0].weight_bytes > res[1].weight_bytes);
        assert_eq!(res[1].weight_bytes, res[2].weight_bytes);
        // Untied LM head on the last stage.
        assert!(res[3].weight_bytes > res[1].weight_bytes);
    }

    #[test]
    fn deeper_pipelines_increase_capacity() {
        let model = ModelConfig::qwen2_5_32b();
        let c2 = ClusterSpec::intra_node_l20(2);
        let c4 = ClusterSpec::intra_node_l20(4);
        let cap2 = c2.pp_kv_token_capacity(&model, &PipelinePartition::even(64, 2));
        let cap4 = c4.pp_kv_token_capacity(&model, &PipelinePartition::even(64, 4));
        assert!(cap4 > cap2);
    }

    #[test]
    fn tp_capacity_close_to_pp_capacity() {
        // TP shards both weights and KV, so aggregate capacity should be in
        // the same ballpark as a 4-stage PP split.
        let model = ModelConfig::qwen2_5_32b();
        let c = ClusterSpec::intra_node_l20(4);
        let pp = c.pp_kv_token_capacity(&model, &PipelinePartition::even(64, 4)) as f64;
        let tp = c.tp_kv_token_capacity(&model) as f64;
        assert!(tp / (4.0 * pp) > 0.2 && tp < 4.0 * pp * 2.0);
    }

    #[test]
    fn oversized_model_reports_zero_capacity() {
        let model = ModelConfig::llama3_1_100b();
        let c = ClusterSpec {
            num_gpus: 1,
            ..ClusterSpec::intra_node_l20(1)
        };
        assert_eq!(c.tp_kv_token_capacity(&model), 0);
    }
}
