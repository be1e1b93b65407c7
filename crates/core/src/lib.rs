//! The gLLM scheduler — the paper's primary contribution — and every
//! baseline scheduling policy it is evaluated against.
//!
//! Scheduling in gLLM is *iteration-level* (Orca-style): before every model
//! forward pass the scheduler composes a fresh micro-batch from the global
//! request pool. This crate keeps policies **pure**: a policy is a function
//! from a [`policy::ScheduleView`] the pool lends it (the waiting queue and
//! decodable sequences, walked in place, plus `#WP`, `#RD`, the KV free
//! rate and the pipeline depth) to a
//! [`plan::BatchPlan`] (which prefill chunks and decode steps to fuse into
//! the next micro-batch). The discrete-event simulator and the threaded
//! runtime both drive the *same* policy objects, so the scheduler being
//! benchmarked is the scheduler being functionally verified.
//!
//! Policies provided:
//!
//! * [`throttle::TokenThrottle`] — gLLM's Token Throttling (§3.1–§3.2):
//!   decoupled prefill/decode regulation via WT (Eq. 1), UT (Eq. 2), the
//!   KV idle threshold and the combined rule (Eq. 3), plus even decode
//!   distribution across micro-batches (Eq. 4). Ablation switches produce
//!   the paper's `w/o WT` and `w/o UT` variants.
//! * [`sarathi::SarathiServe`] — the Sarathi-Serve baseline: all decodes
//!   first, then chunked prefill up to a fixed token budget (vLLM's and
//!   SGLang's scheduling policy, and gLLM's `w/ CK` variant).
//! * [`orca::OrcaPolicy`] — iteration-level scheduling without chunking
//!   (whole prompts), showing the generation stalls chunking removes.
//! * [`batch_level::BatchLevelPolicy`] — FasterTransformer-style run-to-
//!   completion batching, the pre-Orca strawman.
//! * [`td_pipe::TdPipe`] — TD-Pipe's temporal prefill/decode
//!   disaggregation (§2.4), the offline-throughput-oriented alternative.
//!
//! [`pool::RequestPool`] is the shared sequence state machine: it tracks
//! every request from `Waiting` through chunked prefill and decode to
//! `Finished`, enforces the "a sequence is in at most one in-flight
//! micro-batch" invariant that pipeline parallelism requires, and applies
//! committed plans and their completions.

pub mod admission;
pub mod batch_level;
pub mod orca;
pub mod plan;
pub mod policy;
pub mod pool;
pub mod sarathi;
pub mod sequence;
pub mod td_pipe;
pub mod throttle;

pub use admission::{admit, Admission};
pub use plan::{BatchPlan, DecodeSlot, PrefillChunk, SeqSlot};
pub use policy::{
    blocks_to_append, carve_prefill_chunks_block_aware, prefill_kv_after_decode, DecodableSeq,
    SchedulePolicy, ScheduleView, WaitingSeq,
};
pub use pool::{BatchOutcome, EmittedToken, RequestPool};
pub use sequence::{Phase, Sequence};
pub use throttle::{ThrottleConfig, TokenThrottle};

// Re-exported so policy implementors and engines can name the unit
// newtypes without a separate `gllm-units` dependency edge.
pub use gllm_units::{Blocks, Bytes, Tokens};
