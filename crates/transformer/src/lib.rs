//! An executable CPU decoder-only transformer with paged-KV grouped-query
//! attention.
//!
//! The paper's Table 1 argument is functional: gLLM's scheduling (chunked
//! prefill, hybrid batching, Token Throttling) must not change model
//! outputs. With no GPUs available, this crate provides a *real* — if small
//! — transformer that executes forward passes on the CPU so that claim can
//! be verified end-to-end: RMSNorm, rotary position embeddings,
//! grouped-query attention reading/writing a **paged** KV store indexed by
//! `gllm-kvcache` page tables, SwiGLU MLPs and an LM head with greedy /
//! top-k / nucleus sampling.
//!
//! Design properties the tests rely on:
//!
//! * **Determinism / batch invariance** — each sequence's computation is
//!   independent (per-sequence attention, fixed accumulation order), so the
//!   composition of a micro-batch cannot perturb results; chunked prefill
//!   equals whole-prompt prefill bit-for-bit.
//! * **Partition invariance** — weights are derived per layer index from a
//!   master seed, so a 4-stage pipeline instantiates the *same model* as a
//!   single stage, and pipelined execution must reproduce single-process
//!   outputs exactly.
//! * **Speed without reordering** — weights are packed into 8-row panels
//!   and a micro-batch's tokens run through each matrix together, so many
//!   independent accumulations proceed side by side while every output
//!   element sums in the same fixed order as a plain row-by-row `matvec`
//!   (see [`kernels`]). The golden test pins the resulting bits.

pub mod causal_lm;
pub mod kernels;
pub mod kvstore;
pub mod model;
pub mod sampler;
pub mod weights;

pub use causal_lm::{CausalLM, LmKv};
pub use kvstore::PagedKvStore;
pub use model::{BatchChunk, StageModel};
pub use sampler::{sample, SamplingParams};
