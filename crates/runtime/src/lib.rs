//! The gLLM asynchronous serving runtime (§3.3), as threads.
//!
//! The paper's runtime is a multi-process system: a frontend process for
//! user interaction, a *driver worker* that schedules micro-batches, owns
//! the KV cache and broadcasts metadata, and *ordinary workers* that
//! execute pipeline stages, passing activations point-to-point. This crate
//! reproduces that architecture with OS threads and `std::sync::mpsc`
//! channels (standing in for ZeroMQ metadata sockets and NCCL activation
//! streams):
//!
//! * **Non-blocking pipeline operations** — workers block only on their own
//!   inputs; the driver reads one inbox carrying requests, batch results
//!   and worker exits, never stalling the pipeline, and sleeps when idle.
//! * **Decoupled frontend–backend processing** — callers talk to the
//!   [`server::Server`] handle over channels; token streaming is
//!   independent of model execution. The driver sends each completed
//!   batch's tokens as one message, so the frontend wakes once per batch,
//!   not once per token.
//! * **Preemptive metadata scheduling** — the driver broadcasts each
//!   micro-batch's metadata (chunk composition + page tables) to *all*
//!   stages at schedule time, so a worker can prepare before the previous
//!   stage's activations arrive.
//!
//! Execution is real: every stage runs `gllm-transformer` layers, and the
//! scheduler driving it is the *same* `gllm-core` policy object the
//! simulator benchmarks — which is how the repository ties the performance
//! claims to functional correctness.
//!
//! The runtime is additionally *fault tolerant*: a seeded [`FaultPlan`]
//! can kill workers, drop or delay activations and fail KV reservations,
//! and the driver detects the damage, rolls in-flight batches back,
//! respawns the dead stages from the same weight seed and recomputes —
//! producing output bit-identical to the fault-free run (see
//! [`fault`] and the chaos test suite).

pub mod driver;
pub mod fault;
pub mod messages;
pub mod server;
pub mod worker;

pub use fault::{FaultInjector, FaultKind, FaultParseError, FaultPlan};
pub use messages::{GenRequest, StreamEvent};
pub use server::{ConfigError, RuntimeConfig, Server, StallError, SubmitError, Submitter};
