//! Ordinary (non-driver) stage workers, and the spawner that (re)builds
//! the downstream pipeline.
//!
//! A worker loops on its metadata channel: for each announced micro-batch
//! it prepares the chunk structures (possible before activations arrive —
//! the overlap §3.3 describes), blocks on the previous stage's activation
//! stream, runs its decoder layers and forwards the result. The last stage
//! additionally projects logits, samples tokens and returns them to the
//! driver's inbox. Every worker thread reports its end to that inbox as
//! [`DriverMsg::StageExit`], however it ends, so the driver learns of a
//! dead stage from a message rather than from a closed channel.
//!
//! [`StageSpawner`] owns everything needed to wire stages `1..S` from
//! scratch — model config, layer partition, weight seed, fault injector —
//! so the driver can tear a dead pipeline down and respawn it with
//! *identical* weights (same seed ⇒ same parameters), which is what makes
//! recovered runs bit-identical to fault-free runs.

use std::ops::Range;
use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender};
use std::thread::JoinHandle;

use gllm_model::ModelConfig;
use gllm_transformer::sampler::sample;
use gllm_transformer::StageModel;

use crate::fault::{ActivationFate, FaultInjector};
use crate::messages::{Activations, BatchMeta, BatchResult, DriverMsg, WorkerMsg};

/// What a worker does with its stage output.
pub enum StageOutput {
    /// Forward activations to the next stage.
    Next(SyncSender<Activations>),
    /// Final stage: sample and report to the driver's inbox.
    Result(Sender<DriverMsg>),
}

/// The driver's handles to one generation of downstream stages. Dropping
/// the senders cascades every worker to a clean exit (each blocks only on
/// its own inputs), after which `handles` can be joined without deadlock.
///
/// The metadata and activation links are bounded at the stage count, which
/// is the driver's pipeline depth, yet a send on them never blocks. The
/// driver keeps at most `depth` batches in flight, and a batch leaves in-flight only when its result
/// reaches the driver, i.e. after every worker has taken its metadata and
/// its activations. So no link ever holds more than `depth` messages, and
/// the final `Shutdown` is sent with nothing in flight.
pub struct PipelineLinks {
    /// Per-worker metadata broadcast channels (stages `1..S`).
    pub meta_txs: Vec<SyncSender<WorkerMsg>>,
    /// Activation channel into stage 1 (`None` on single-stage pipelines).
    pub act_tx: Option<SyncSender<Activations>>,
    /// Worker thread handles, stage order.
    pub handles: Vec<JoinHandle<()>>,
}

/// Sends [`DriverMsg::StageExit`] when its worker thread ends, whether the
/// worker returned, was killed by the fault injector or panicked.
struct ExitNotice(Sender<DriverMsg>);

impl Drop for ExitNotice {
    fn drop(&mut self) {
        // The driver is gone only at the very end of a shutdown.
        let _ = self.0.send(DriverMsg::StageExit);
    }
}

/// Everything needed to (re)build the downstream pipeline stages from
/// seeded weights.
pub struct StageSpawner {
    model: ModelConfig,
    /// Layer range per stage (index 0 is the driver's, never respawned).
    ranges: Vec<Range<usize>>,
    kv_slots: usize,
    seed: u64,
    injector: FaultInjector,
    /// The driver's inbox: results and exit notices of every generation.
    inbox: Sender<DriverMsg>,
}

impl StageSpawner {
    /// A spawner for `ranges.len()` stages over `model` whose workers
    /// report to `inbox`.
    pub fn new(
        model: ModelConfig,
        ranges: Vec<Range<usize>>,
        kv_slots: usize,
        seed: u64,
        injector: FaultInjector,
        inbox: Sender<DriverMsg>,
    ) -> Self {
        Self { model, ranges, kv_slots, seed, injector, inbox }
    }

    /// Total pipeline stages (including the driver's stage 0).
    pub fn num_stages(&self) -> usize {
        self.ranges.len()
    }

    /// Wire and spawn stages `1..S`: a metadata channel per worker plus
    /// the activation chain driver → 1 → … → S−1 → inbox, each bounded at
    /// the depth (see [`PipelineLinks`]). Weights are rebuilt from the
    /// seed, so a respawned stage is parameter-identical to the one it
    /// replaces. On a single-stage pipeline there are no workers and no
    /// links.
    pub fn spawn_downstream(&self) -> PipelineLinks {
        let num_stages = self.ranges.len();
        let mut meta_txs = Vec::with_capacity(num_stages.saturating_sub(1));
        let mut handles = Vec::with_capacity(num_stages.saturating_sub(1));
        let mut first_act_tx = None;
        let mut next_act_rx: Option<Receiver<Activations>> = None;
        for (s, range) in self.ranges.iter().enumerate().skip(1) {
            let (meta_tx, meta_rx) = sync_channel(num_stages);
            meta_txs.push(meta_tx);
            let act_rx = match next_act_rx.take() {
                Some(rx) => rx,
                None => {
                    let (tx, rx) = sync_channel(num_stages);
                    first_act_tx = Some(tx);
                    rx
                }
            };
            let is_last = s + 1 == num_stages;
            let output = if is_last {
                StageOutput::Result(self.inbox.clone())
            } else {
                let (tx, rx) = sync_channel(num_stages);
                next_act_rx = Some(rx);
                StageOutput::Next(tx)
            };
            let stage = StageModel::new(self.model.clone(), range.clone(), self.kv_slots, self.seed);
            let injector = self.injector.clone();
            let exit = ExitNotice(self.inbox.clone());
            handles.push(std::thread::spawn(move || {
                let _exit = exit;
                run_worker(s, stage, meta_rx, act_rx, output, injector)
            }));
        }
        PipelineLinks { meta_txs, act_tx: first_act_tx, handles }
    }
}

/// Run one worker until shutdown (or injected death). `meta_rx` delivers
/// batch metadata (ahead of data), `act_rx` the previous stage's
/// activations.
pub fn run_worker(
    stage_idx: usize,
    mut stage: StageModel,
    meta_rx: Receiver<WorkerMsg>,
    act_rx: Receiver<Activations>,
    output: StageOutput,
    injector: FaultInjector,
) {
    while let Ok(msg) = meta_rx.recv() {
        let meta = match msg {
            WorkerMsg::Batch(meta) => meta,
            WorkerMsg::Shutdown => break,
        };
        if injector.should_kill(stage_idx, meta.batch) {
            // Injected death: vanish mid-batch. Our channels drop, the
            // neighbours cascade out, and the exit notices tell the driver
            // to recover.
            return;
        }
        // Preparation from metadata alone (tables, chunk layout) happens
        // here, before the activations land.
        let tables: Vec<_> = meta.tables.iter().collect();
        let Ok(acts) = act_rx.recv() else {
            // Upstream stage gone: the pipeline is tearing down.
            break;
        };
        if acts.batch != meta.batch {
            // Metadata/activation streams desynchronised — an upstream
            // activation was lost. There is no way to resynchronise
            // locally (the missing batch's hidden state is gone), so exit
            // and let the teardown cascade reach the driver, which rolls
            // the lost batches back and recomputes them.
            break;
        }
        let mut hidden = acts.hidden;
        stage.forward(&meta.chunks, &tables, &mut hidden);
        match &output {
            StageOutput::Next(tx) => {
                match injector.activation_fate(stage_idx, meta.batch) {
                    ActivationFate::Drop => continue,
                    ActivationFate::Delay(d) => std::thread::sleep(d),
                    ActivationFate::Deliver => {}
                }
                if tx.send(Activations { batch: meta.batch, hidden }).is_err() {
                    break;
                }
            }
            StageOutput::Result(tx) => {
                let tokens = sample_tokens(&stage, &meta, &hidden);
                if tx.send(DriverMsg::Result(BatchResult { batch: meta.batch, tokens })).is_err() {
                    break;
                }
            }
        }
    }
}

/// Project the last stage's hidden states and sample one token per
/// sampling chunk: the `(seq, token)` pairs of the batch's result.
pub(crate) fn sample_tokens(
    stage: &StageModel,
    meta: &BatchMeta,
    hidden: &[Vec<f32>],
) -> Vec<(u64, u32)> {
    // `project` yields one row per sampling chunk, in chunk order.
    let sampled = meta.chunks.iter().zip(&meta.samples).filter(|(c, _)| c.sample);
    stage
        .project(&meta.chunks, hidden)
        .iter()
        .zip(sampled)
        .filter_map(|((seq, logits), (_, s))| {
            s.as_ref().map(|(params, step)| (*seq, sample(logits, params, *seq, *step)))
        })
        .collect()
}
