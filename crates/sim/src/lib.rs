//! Discrete-event simulator of distributed LLM serving clusters.
//!
//! This crate is the substitute for the paper's GPU testbeds: it replays a
//! workload trace through the *real* schedulers of `gllm-core` and the
//! *real* KV-cache manager of `gllm-kvcache`, but executes micro-batches in
//! virtual time using `gllm-model`'s analytic cost model. Pipeline bubbles,
//! KV pressure, preemptions and the prefill/decode asymmetry all emerge
//! from the same mechanics as on hardware; only the per-batch latency is
//! analytic.
//!
//! * [`event`] — deterministic time-ordered event queue,
//! * [`deployment`] — model-on-cluster configuration (partitioning, KV
//!   capacity, block size),
//! * [`runtime_model`] — CPU-overhead model distinguishing vLLM's coupled
//!   metadata/activation runtime from gLLM's asynchronous overlapped one
//!   (§3.3–3.4),
//! * `pipeline` — one group of stages fed by one scheduling step: stage
//!   occupancy and queues, activation hops, the schedule loop, token
//!   emission; shared by the unified and disaggregated planes,
//! * [`engine`] — the unified event loop: one pipeline fed by the trace's
//!   arrivals,
//! * [`disagg`] — prefill/decode disaggregation: two pipelines joined by
//!   a KV transfer,
//! * [`systems`] — presets for every system in the paper's evaluation
//!   (gLLM, vLLM, SGLang, the ablation variants),
//! * [`experiment`] — one-call experiment driver producing a
//!   [`experiment::RunResult`],
//! * [`capacity`] — max-throughput search used by the scalability study,
//! * [`sweep`] — deterministic parallel fan-out for multi-simulation
//!   sweeps (results merged in job order, bit-identical to serial).

pub mod capacity;
pub mod deployment;
pub mod disagg;
pub mod engine;
pub mod event;
pub mod experiment;
mod pipeline;
pub mod runtime_model;
pub mod sweep;
pub mod systems;

pub use deployment::Deployment;
pub use disagg::{simulate_disaggregated, DisaggConfig};
pub use engine::{EngineConfig, SimEngine};
pub use experiment::{run_experiment, RunResult};
pub use runtime_model::RuntimeModel;
pub use sweep::{default_jobs, parallel_map, run_experiments, ExperimentJob};
pub use systems::{Parallelism, PolicyKind, SystemConfig};
