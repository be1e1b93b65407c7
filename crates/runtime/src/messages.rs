//! Channel message types: the runtime's wire protocol.

use gllm_kvcache::PageTable;
use gllm_transformer::model::BatchChunk;
use gllm_transformer::sampler::SamplingParams;

/// A generation request submitted by the frontend.
#[derive(Debug, Clone)]
pub struct GenRequest {
    /// Unique request id (doubles as the sequence id); a reused id is
    /// rejected.
    pub id: u64,
    /// Prompt token ids (non-empty).
    pub prompt: Vec<u32>,
    /// Output tokens to generate.
    pub max_new: usize,
    /// Sampling configuration.
    pub params: SamplingParams,
}

/// Events streamed back to the frontend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamEvent {
    /// One output token for `seq`.
    Token {
        /// Sequence id.
        seq: u64,
        /// The sampled token.
        token: u32,
        /// Whether this token completed the request.
        finished: bool,
    },
    /// The request can never be served: it is empty, its context exceeds
    /// KV capacity, or its id was already used on this server.
    Rejected {
        /// Sequence id.
        seq: u64,
    },
    /// The request was admitted but later terminated by the failure path:
    /// its KV reservations kept failing past the retry budget, the driver
    /// hit an internal bookkeeping inconsistency, or recovery gave up
    /// after too many pipeline respawns. Tokens already streamed for the
    /// request must be discarded.
    Failed {
        /// Sequence id.
        seq: u64,
    },
}

/// Metadata the driver broadcasts to every worker before a micro-batch
/// executes — the paper's "preemptive metadata scheduling": workers receive
/// this ahead of the activations and can prepare inputs early.
#[derive(Debug, Clone)]
pub struct BatchMeta {
    /// Monotone batch id.
    pub batch: u64,
    /// Chunk composition (token ids, positions, sampling flags).
    pub chunks: Vec<BatchChunk>,
    /// Page table snapshot per chunk (unified tables, driver-owned).
    pub tables: Vec<PageTable>,
    /// For each chunk with `sample == true`: the sampling parameters and
    /// the step index used to derive per-token randomness.
    pub samples: Vec<Option<(SamplingParams, usize)>>,
}

/// Driver → worker control messages.
#[derive(Debug, Clone)]
pub enum WorkerMsg {
    /// Execute this micro-batch (activations arrive separately).
    Batch(BatchMeta),
    /// Drain and exit.
    Shutdown,
}

/// Activations handed between consecutive stages (the NCCL stream).
#[derive(Debug, Clone)]
pub struct Activations {
    /// Batch id (must match the head of the metadata queue).
    pub batch: u64,
    /// One `tokens × hidden` row buffer per chunk.
    pub hidden: Vec<Vec<f32>>,
}

/// Sampled tokens returned by the last stage to the driver.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Batch id.
    pub batch: u64,
    /// `(seq, token)` for every sampled chunk, in chunk order.
    pub tokens: Vec<(u64, u32)>,
}

/// Everything the driver's single inbox carries: frontend requests and
/// control, plus what the downstream stages report.
#[derive(Debug, Clone)]
pub enum DriverMsg {
    /// Serve this request.
    Submit(GenRequest),
    /// Finish in-flight batches, stop workers, exit.
    Shutdown,
    /// The last stage finished a micro-batch.
    Result(BatchResult),
    /// A downstream worker thread ended. Outside shutdown that means the
    /// stage is dead and the pipeline must recover.
    StageExit,
}
