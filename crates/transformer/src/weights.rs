//! Deterministic synthetic weights.
//!
//! Real checkpoints are unavailable offline, so weights are drawn from a
//! seeded generator. Crucially, every tensor's values are derived from
//! `(master_seed, layer_index, tensor_tag)` — *not* from the order tensors
//! happen to be created in — so a model partitioned into any number of
//! pipeline stages instantiates exactly the same parameters. That is what
//! lets the tests assert pipelined execution is bit-identical to
//! single-stage execution.

use gllm_model::ModelConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::kernels::Packed;

/// Tags identifying each tensor within a layer (or globally).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tensor {
    /// Token embedding table.
    Embedding,
    /// LM head projection.
    LmHead,
    /// Final RMSNorm gain.
    FinalNorm,
    /// Attention input norm gain.
    AttnNorm,
    /// Query projection.
    Wq,
    /// Key projection.
    Wk,
    /// Value projection.
    Wv,
    /// Output projection.
    Wo,
    /// MLP input norm gain.
    MlpNorm,
    /// SwiGLU gate projection.
    WGate,
    /// SwiGLU up projection.
    WUp,
    /// SwiGLU down projection.
    WDown,
}

impl Tensor {
    fn tag(self) -> u64 {
        match self {
            Tensor::Embedding => 1,
            Tensor::LmHead => 2,
            Tensor::FinalNorm => 3,
            Tensor::AttnNorm => 4,
            Tensor::Wq => 5,
            Tensor::Wk => 6,
            Tensor::Wv => 7,
            Tensor::Wo => 8,
            Tensor::MlpNorm => 9,
            Tensor::WGate => 10,
            Tensor::WUp => 11,
            Tensor::WDown => 12,
        }
    }
}

/// Weights of one decoder layer. Projections are generated row-major
/// (`[out × in]`) and held packed into panels for [`Packed::matmul`].
#[derive(Debug, Clone)]
pub struct LayerWeights {
    /// Attention-input RMSNorm gain, `[hidden]`.
    pub attn_norm: Vec<f32>,
    /// Query projection, `[q_dim × hidden]`.
    pub wq: Packed,
    /// Key projection, `[kv_dim × hidden]`.
    pub wk: Packed,
    /// Value projection, `[kv_dim × hidden]`.
    pub wv: Packed,
    /// Output projection, `[hidden × q_dim]`.
    pub wo: Packed,
    /// MLP-input RMSNorm gain, `[hidden]`.
    pub mlp_norm: Vec<f32>,
    /// SwiGLU gate, `[intermediate × hidden]`.
    pub w_gate: Packed,
    /// SwiGLU up, `[intermediate × hidden]`.
    pub w_up: Packed,
    /// SwiGLU down, `[hidden × intermediate]`.
    pub w_down: Packed,
}

/// Splitmix64: cheap, high-quality seed derivation.
fn derive_seed(master: u64, layer: u64, tag: u64) -> u64 {
    let mut z = master ^ layer.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generate one tensor of `n` values with scale `s` (uniform in `[-s, s]`).
pub fn gen_tensor(master: u64, layer: usize, tensor: Tensor, n: usize, s: f32) -> Vec<f32> {
    let mut rng = SmallRng::seed_from_u64(derive_seed(master, layer as u64, tensor.tag()));
    (0..n).map(|_| rng.gen_range(-s..=s)).collect()
}

/// Generate a norm gain (all ones perturbed slightly, like trained norms).
pub fn gen_norm(master: u64, layer: usize, tensor: Tensor, n: usize) -> Vec<f32> {
    let mut rng = SmallRng::seed_from_u64(derive_seed(master, layer as u64, tensor.tag()));
    (0..n).map(|_| 1.0 + rng.gen_range(-0.05f32..=0.05)).collect()
}

/// Generate layer `layer`'s weights for `cfg` from `master` seed.
pub fn gen_layer(cfg: &ModelConfig, master: u64, layer: usize) -> LayerWeights {
    let h = cfg.hidden_size;
    let q = cfg.q_dim();
    let kv = cfg.kv_dim();
    let i = cfg.intermediate_size;
    let s = 0.6 / (h as f32).sqrt();
    let matrix = |tensor, rows, cols, scale| {
        Packed::new(&gen_tensor(master, layer, tensor, rows * cols, scale), rows, cols)
    };
    LayerWeights {
        attn_norm: gen_norm(master, layer, Tensor::AttnNorm, h),
        wq: matrix(Tensor::Wq, q, h, s),
        wk: matrix(Tensor::Wk, kv, h, s),
        wv: matrix(Tensor::Wv, kv, h, s),
        wo: matrix(Tensor::Wo, h, q, s),
        mlp_norm: gen_norm(master, layer, Tensor::MlpNorm, h),
        w_gate: matrix(Tensor::WGate, i, h, s),
        w_up: matrix(Tensor::WUp, i, h, s),
        w_down: matrix(Tensor::WDown, h, i, 0.6 / (i as f32).sqrt()),
    }
}

/// Generate the embedding table.
pub fn gen_embedding(cfg: &ModelConfig, master: u64) -> Vec<f32> {
    gen_tensor(master, usize::MAX, Tensor::Embedding, cfg.vocab_size * cfg.hidden_size, 0.5)
}

/// Generate the LM head (`[vocab × hidden]`, packed).
pub fn gen_lm_head(cfg: &ModelConfig, master: u64) -> Packed {
    let w = gen_tensor(
        master,
        usize::MAX,
        Tensor::LmHead,
        cfg.vocab_size * cfg.hidden_size,
        0.6 / (cfg.hidden_size as f32).sqrt(),
    );
    Packed::new(&w, cfg.vocab_size, cfg.hidden_size)
}

/// Generate the final RMSNorm gain.
pub fn gen_final_norm(cfg: &ModelConfig, master: u64) -> Vec<f32> {
    gen_norm(master, usize::MAX, Tensor::FinalNorm, cfg.hidden_size)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_weights() {
        let cfg = ModelConfig::tiny();
        let a = gen_layer(&cfg, 42, 1);
        let b = gen_layer(&cfg, 42, 1);
        assert_eq!(a.wq, b.wq);
        assert_eq!(a.w_down, b.w_down);
    }

    #[test]
    fn different_layers_differ() {
        let cfg = ModelConfig::tiny();
        let a = gen_layer(&cfg, 42, 0);
        let b = gen_layer(&cfg, 42, 1);
        assert_ne!(a.wq, b.wq);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = ModelConfig::tiny();
        assert_ne!(gen_layer(&cfg, 1, 0).wq, gen_layer(&cfg, 2, 0).wq);
    }

    #[test]
    fn shapes_match_config() {
        let cfg = ModelConfig::tiny();
        let l = gen_layer(&cfg, 7, 0);
        let shape = |m: &Packed| (m.rows(), m.cols());
        assert_eq!(shape(&l.wq), (cfg.q_dim(), cfg.hidden_size));
        assert_eq!(shape(&l.wk), (cfg.kv_dim(), cfg.hidden_size));
        assert_eq!(shape(&l.wo), (cfg.hidden_size, cfg.q_dim()));
        assert_eq!(shape(&l.w_down), (cfg.hidden_size, cfg.intermediate_size));
        assert_eq!(gen_embedding(&cfg, 7).len(), cfg.vocab_size * cfg.hidden_size);
    }

    #[test]
    fn norm_gains_are_near_one() {
        let cfg = ModelConfig::tiny();
        let n = gen_norm(7, 0, Tensor::AttnNorm, cfg.hidden_size);
        assert!(n.iter().all(|&g| (0.9..=1.1).contains(&g)));
    }
}
