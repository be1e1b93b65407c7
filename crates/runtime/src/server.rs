//! The serving frontend: spawn, submit, stream, shut down.

use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use gllm_core::SchedulePolicy;
use gllm_kvcache::{Blocks, KvCacheManager, Tokens};
use gllm_metrics::{AuditSnapshot, MetricsRecorder};
use gllm_model::{ModelConfig, PipelinePartition};
use gllm_transformer::StageModel;

use crate::driver::{run_driver, DriverOutput, DriverParams};
use crate::fault::{FaultInjector, FaultPlan};
use crate::messages::{DriverMsg, GenRequest, StreamEvent};
use crate::worker::StageSpawner;

/// Deployment parameters of a threaded serving instance.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// The transformer to serve.
    pub model: ModelConfig,
    /// Pipeline stages (threads); 1 collapses to a single-worker engine.
    pub num_stages: usize,
    /// KV blocks.
    pub kv_blocks: usize,
    /// Tokens per KV block.
    pub block_size: usize,
    /// Per-batch sequence cap.
    pub max_seqs_per_batch: usize,
    /// Weight seed (same seed + model = same parameters at any stage
    /// count).
    pub seed: u64,
    /// Chunked pipeline parallelism: overlap a request's prefill chunks
    /// across stages (§3.4). Outputs are bit-identical either way.
    pub cpp: bool,
    /// Run the invariant auditor on every schedule/complete transition.
    /// Cheap (shadow counters only) and on by default.
    pub audit: bool,
    /// Record the structured pipeline trace (schedule/stage/complete
    /// events; exportable as a Chrome trace).
    pub record_trace: bool,
    /// How long [`Server::generate_all`] waits without any stream event
    /// before declaring the runtime stalled.
    pub stall_timeout: Duration,
    /// Faults to inject into this run (empty = none). Used by the chaos
    /// suite and the `--fault-plan` CLI flag.
    pub fault_plan: FaultPlan,
    /// Full pipeline recoveries the driver attempts before failing the
    /// open requests with structured [`StreamEvent::Failed`] events.
    pub max_recoveries: usize,
    /// KV-reservation retries per request before a structured failure.
    pub max_kv_retries: usize,
    /// Heartbeat window: batches in flight with no completion for this
    /// long is treated as a wedged pipeline and triggers recovery.
    pub batch_timeout: Duration,
}

impl RuntimeConfig {
    /// A small default around the tiny test model.
    pub fn tiny(num_stages: usize) -> Self {
        Self {
            model: ModelConfig::tiny(),
            num_stages,
            kv_blocks: 256,
            block_size: 4,
            max_seqs_per_batch: 64,
            seed: 2024,
            cpp: false,
            audit: true,
            record_trace: false,
            stall_timeout: Duration::from_secs(60),
            fault_plan: FaultPlan::none(),
            max_recoveries: 8,
            max_kv_retries: 4,
            batch_timeout: Duration::from_secs(5),
        }
    }
}

/// A [`RuntimeConfig`] that cannot be served. Returned by
/// [`Server::start`] instead of aborting the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `num_stages` was zero.
    NoStages,
    /// More stages than the model has layers to distribute.
    MoreStagesThanLayers {
        /// Requested stage count.
        stages: usize,
        /// Layers available.
        layers: usize,
    },
    /// The KV cache would hold zero tokens (`kv_blocks` or `block_size`
    /// was zero).
    EmptyKvCache,
    /// `max_seqs_per_batch` was zero: nothing could ever be scheduled.
    ZeroBatchCap,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoStages => write!(f, "num_stages must be at least 1"),
            ConfigError::MoreStagesThanLayers { stages, layers } => {
                write!(f, "{stages} pipeline stages over a {layers}-layer model")
            }
            ConfigError::EmptyKvCache => {
                write!(f, "KV cache holds zero tokens (kv_blocks and block_size must be positive)")
            }
            ConfigError::ZeroBatchCap => write!(f, "max_seqs_per_batch must be at least 1"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// The runtime stopped producing stream events for a full timeout window.
///
/// Carries the auditor's last snapshot (when auditing is on) so a stall is
/// diagnosable post-mortem: how many batches were in flight, what the KV
/// shadow accounting looked like, and any violations detected before the
/// pipeline wedged.
#[derive(Debug, Clone)]
pub struct StallError {
    /// How long we waited for the next event.
    pub waited: Duration,
    /// Requests still open (submitted, neither finished nor rejected).
    pub pending: usize,
    /// True when the driver hung up (channel closed) rather than timing
    /// out while alive.
    pub disconnected: bool,
    /// The auditor's state as of the last schedule/complete transition.
    /// Boxed: the snapshot (with its fault/recovery counters) dominates
    /// the error's size, and `Result<_, StallError>` travels by value.
    pub snapshot: Option<Box<AuditSnapshot>>,
}

impl std::fmt::Display for StallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.disconnected {
            write!(f, "runtime disconnected: driver hung up with {} request(s) pending", self.pending)?;
        } else {
            write!(
                f,
                "runtime stalled: no stream events within {:.1} s with {} request(s) pending",
                self.waited.as_secs_f64(),
                self.pending
            )?;
        }
        match &self.snapshot {
            Some(s) => write!(
                f,
                " (audit: {} batches checked, {} in flight, {} violations)",
                s.batches_checked,
                s.in_flight,
                s.violations
            ),
            None => write!(f, " (audit off)"),
        }
    }
}

impl std::error::Error for StallError {}

/// A cloneable handle that can submit requests to a running [`Server`].
#[derive(Clone)]
pub struct Submitter {
    req_tx: Sender<DriverMsg>,
}

impl Submitter {
    /// Submit a generation request. Fails when the driver has shut down
    /// (or died) and will never serve it.
    pub fn submit(&self, req: GenRequest) -> Result<(), SubmitError> {
        self.req_tx.send(DriverMsg::Submit(req)).map_err(|_| SubmitError)
    }

    /// Ask the driver to drain its in-flight work and exit. Once it has,
    /// [`Server::wait_event`] returns `None`, so a thread blocked there
    /// learns of the shutdown as an event rather than by polling.
    pub fn request_shutdown(&self) {
        let _ = self.req_tx.send(DriverMsg::Shutdown);
    }
}

/// The driver is no longer accepting requests: the server was shut down or
/// its thread died.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitError;

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "driver disconnected: request was not submitted")
    }
}

impl std::error::Error for SubmitError {}

/// A running serving instance: frontend handle to the driver + workers.
///
/// The driver thread owns the downstream worker generation (it must, to
/// tear them down and respawn them on failure), so this handle only joins
/// the driver at shutdown. Dropping the handle without a shutdown tells the
/// driver to drain and exit without waiting for it.
pub struct Server {
    req_tx: Sender<DriverMsg>,
    /// The driver's events, one message per driver step.
    stream_rx: Receiver<Vec<StreamEvent>>,
    /// Events received but not yet handed out by [`Server::next_event`].
    pending: Mutex<VecDeque<StreamEvent>>,
    driver: Option<JoinHandle<DriverOutput>>,
    audit_state: Arc<Mutex<Option<AuditSnapshot>>>,
    stall_timeout: Duration,
}

impl Server {
    /// Validate the config, spawn the driver and one worker thread per
    /// remaining stage.
    pub fn start(
        cfg: RuntimeConfig,
        policy: Arc<dyn SchedulePolicy>,
    ) -> Result<Self, ConfigError> {
        if cfg.num_stages == 0 {
            return Err(ConfigError::NoStages);
        }
        if cfg.num_stages > cfg.model.num_layers {
            return Err(ConfigError::MoreStagesThanLayers {
                stages: cfg.num_stages,
                layers: cfg.model.num_layers,
            });
        }
        if cfg.kv_blocks == 0 || cfg.block_size == 0 {
            return Err(ConfigError::EmptyKvCache);
        }
        if cfg.max_seqs_per_batch == 0 {
            return Err(ConfigError::ZeroBatchCap);
        }
        let kv_slots = cfg.kv_blocks * cfg.block_size;

        let ranges = PipelinePartition::even(cfg.model.num_layers, cfg.num_stages).layer_ranges();

        let (req_tx, inbox) = channel();
        let (stream_tx, stream_rx) = channel();

        let stage0 = StageModel::new(
            cfg.model.clone(),
            ranges.first().cloned().unwrap_or(0..0),
            kv_slots,
            cfg.seed,
        );
        let injector = FaultInjector::new(&cfg.fault_plan);
        let spawner = StageSpawner::new(
            cfg.model.clone(),
            ranges,
            kv_slots,
            cfg.seed,
            injector.clone(),
            req_tx.clone(),
        );
        let links = spawner.spawn_downstream();
        let audit_state = Arc::new(Mutex::new(None));
        let params = DriverParams {
            stage0,
            policy,
            kvm: KvCacheManager::new(Blocks(cfg.kv_blocks), Tokens(cfg.block_size)),
            inbox,
            links,
            spawner,
            stream_tx,
            depth: cfg.num_stages,
            max_seqs_per_batch: cfg.max_seqs_per_batch,
            cpp: cfg.cpp,
            audit: cfg.audit,
            record_trace: cfg.record_trace,
            audit_state: Arc::clone(&audit_state),
            injector,
            max_recoveries: cfg.max_recoveries,
            max_kv_retries: cfg.max_kv_retries,
            batch_timeout: cfg.batch_timeout,
        };
        let driver = std::thread::spawn(move || run_driver(params));

        Ok(Self {
            req_tx,
            stream_rx,
            pending: Mutex::new(VecDeque::new()),
            driver: Some(driver),
            audit_state,
            stall_timeout: cfg.stall_timeout,
        })
    }

    /// Submit a generation request. Fails when the driver has shut down
    /// (or died) and will never serve it.
    pub fn submit(&self, req: GenRequest) -> Result<(), SubmitError> {
        self.req_tx.send(DriverMsg::Submit(req)).map_err(|_| SubmitError)
    }

    /// A cloneable submission handle usable from other threads (e.g. HTTP
    /// connection handlers) while the server itself lives elsewhere.
    pub fn submitter(&self) -> Submitter {
        Submitter { req_tx: self.req_tx.clone() }
    }

    /// Wait up to `timeout` for the next stream event.
    pub fn next_event(&self, timeout: Duration) -> Option<StreamEvent> {
        if let Some(ev) = self.pending().pop_front() {
            return Some(ev);
        }
        let events = self.stream_rx.recv_timeout(timeout).ok()?;
        let mut pending = self.pending();
        pending.extend(events);
        pending.pop_front()
    }

    /// Block until the next stream event. `None` once the driver has
    /// exited (shut down or died) and every event it sent was handed out.
    pub fn wait_event(&self) -> Option<StreamEvent> {
        loop {
            if let Some(ev) = self.pending().pop_front() {
                return Some(ev);
            }
            let events = self.stream_rx.recv().ok()?;
            self.pending().extend(events);
        }
    }

    fn pending(&self) -> MutexGuard<'_, VecDeque<StreamEvent>> {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The auditor's state as of the last schedule/complete transition
    /// (`None` before the first batch or when auditing is off).
    pub fn audit_snapshot(&self) -> Option<AuditSnapshot> {
        // A driver panic poisons this mutex, and that is exactly when the
        // snapshot matters most (it feeds StallError post-mortems): recover
        // the data instead of returning None on poison.
        self.audit_state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Submit `reqs` and block until each finishes (or is rejected, or
    /// fails), returning the generated tokens per request id. Rejected and
    /// failed requests map to an empty vector.
    ///
    /// Errors with [`StallError`] — carrying the auditor's last snapshot —
    /// if no stream event arrives within the configured stall timeout.
    pub fn generate_all(
        &self,
        reqs: Vec<GenRequest>,
    ) -> Result<BTreeMap<u64, Vec<u32>>, StallError> {
        let mut out: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        let mut open = reqs.len();
        for r in reqs {
            out.insert(r.id, Vec::new());
            if self.submit(r).is_err() {
                return Err(StallError {
                    waited: Duration::ZERO,
                    pending: open,
                    disconnected: true,
                    snapshot: self.audit_snapshot().map(Box::new),
                });
            }
        }
        while open > 0 {
            match self.next_event(self.stall_timeout) {
                Some(StreamEvent::Token { seq, token, finished }) => {
                    // Events for ids we never submitted (e.g. leftovers
                    // from an earlier call on the same server) are skipped
                    // rather than panicking.
                    if let Some(toks) = out.get_mut(&seq) {
                        toks.push(token);
                        if finished {
                            open -= 1;
                        }
                    }
                }
                Some(StreamEvent::Rejected { seq }) => {
                    if let Some(toks) = out.get_mut(&seq) {
                        toks.clear();
                        open -= 1;
                    }
                }
                Some(StreamEvent::Failed { seq }) => {
                    // Structured failure: any tokens streamed before the
                    // failure are discarded, as the event contract demands.
                    if let Some(toks) = out.get_mut(&seq) {
                        toks.clear();
                        open -= 1;
                    }
                }
                None => {
                    return Err(StallError {
                        waited: self.stall_timeout,
                        pending: open,
                        disconnected: false,
                        snapshot: self.audit_snapshot().map(Box::new),
                    })
                }
            }
        }
        Ok(out)
    }

    /// Drain in-flight work, stop every thread and return everything the
    /// driver produced: metrics, audit report and pipeline trace. Does
    /// *not* assert audit cleanliness — callers inspect the report.
    pub fn shutdown_full(mut self) -> DriverOutput {
        let _ = self.req_tx.send(DriverMsg::Shutdown);
        match self.driver.take().map(JoinHandle::join) {
            Some(Ok(out)) => out,
            // A dead driver yields an empty output instead of re-raising
            // its panic on the caller's thread.
            Some(Err(_)) | None => DriverOutput::empty(),
        }
    }

    /// Drain in-flight work, stop every thread and return the driver's
    /// metrics. Panics if the invariant auditor detected any violation.
    pub fn shutdown(self) -> MetricsRecorder {
        let out = self.shutdown_full();
        if let Some(audit) = &out.audit {
            audit.assert_clean("runtime");
        }
        out.recorder
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // The spawner keeps the driver's inbox open for respawns, so the
        // driver cannot see the frontend go away: tell it. After a
        // shutdown the driver is gone and this send fails harmlessly.
        let _ = self.req_tx.send(DriverMsg::Shutdown);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gllm_core::sarathi::SarathiServe;
    use gllm_core::throttle::TokenThrottle;
    use gllm_transformer::sampler::SamplingParams;
    use gllm_transformer::CausalLM;

    fn req(id: u64, prompt: Vec<u32>, max_new: usize) -> GenRequest {
        GenRequest { id, prompt, max_new, params: SamplingParams::greedy() }
    }

    fn start(cfg: RuntimeConfig, policy: Arc<dyn SchedulePolicy>) -> Server {
        Server::start(cfg, policy).expect("valid config")
    }

    fn reference_generation(prompt: &[u32], max_new: usize) -> Vec<u32> {
        let mut lm = CausalLM::new(ModelConfig::tiny(), 1, 256, 4, 2024);
        lm.generate(99, prompt, max_new, 1024, &SamplingParams::greedy()).unwrap()
    }

    #[test]
    fn invalid_configs_are_reported_not_aborted() {
        let start_err = |cfg: RuntimeConfig| -> ConfigError {
            match Server::start(cfg, Arc::new(TokenThrottle::default())) {
                Err(e) => e,
                Ok(_) => panic!("invalid config accepted"),
            }
        };
        assert_eq!(start_err(RuntimeConfig::tiny(0)), ConfigError::NoStages);
        let layers = ModelConfig::tiny().num_layers;
        let err = start_err(RuntimeConfig::tiny(layers + 1));
        assert_eq!(err, ConfigError::MoreStagesThanLayers { stages: layers + 1, layers });
        assert!(err.to_string().contains("pipeline stages"));
        assert_eq!(
            start_err(RuntimeConfig { kv_blocks: 0, ..RuntimeConfig::tiny(1) }),
            ConfigError::EmptyKvCache
        );
        assert_eq!(
            start_err(RuntimeConfig { block_size: 0, ..RuntimeConfig::tiny(1) }),
            ConfigError::EmptyKvCache
        );
        assert_eq!(
            start_err(RuntimeConfig { max_seqs_per_batch: 0, ..RuntimeConfig::tiny(1) }),
            ConfigError::ZeroBatchCap
        );
    }

    /// Regression: `audit_snapshot` must recover the last snapshot even
    /// when the mutex was poisoned by a panicking holder — a crashed
    /// driver is exactly the case where the post-mortem snapshot matters.
    #[test]
    fn audit_snapshot_survives_a_poisoned_mutex() {
        let server = start(RuntimeConfig::tiny(1), Arc::new(TokenThrottle::default()));
        server.generate_all(vec![req(1, vec![5, 9, 33], 4)]).expect("runtime stalled");
        assert!(server.audit_snapshot().is_some(), "audit on => snapshot recorded");

        // Poison the mutex the way a crashing driver would: panic while
        // holding the guard.
        let state = Arc::clone(&server.audit_state);
        let _ = std::thread::spawn(move || {
            let _guard = state.lock().expect("not yet poisoned");
            panic!("poison the audit mutex");
        })
        .join();
        assert!(server.audit_state.lock().is_err(), "mutex must now be poisoned");

        // The snapshot written before the crash is still readable.
        assert!(server.audit_snapshot().is_some());
        server.shutdown();
    }

    #[test]
    fn single_stage_runtime_matches_reference_model() {
        let server = start(RuntimeConfig::tiny(1), Arc::new(TokenThrottle::default()));
        let out = server.generate_all(vec![req(1, vec![5, 9, 33, 120, 7], 10)]).expect("runtime stalled");
        let rec = server.shutdown();
        assert_eq!(out[&1], reference_generation(&[5, 9, 33, 120, 7], 10));
        assert_eq!(rec.finished_count(), 1);
    }

    #[test]
    fn pipelined_runtime_matches_reference_model() {
        let server = start(RuntimeConfig::tiny(4), Arc::new(TokenThrottle::default()));
        let out = server.generate_all(vec![req(1, vec![5, 9, 33, 120, 7], 10)]).expect("runtime stalled");
        server.shutdown();
        assert_eq!(out[&1], reference_generation(&[5, 9, 33, 120, 7], 10));
    }

    #[test]
    fn scheduler_choice_does_not_change_outputs() {
        // The Table 1 claim: gLLM's throttled scheduling and Sarathi's
        // coupled scheduling generate identical text.
        let prompts: Vec<Vec<u32>> = (0..6)
            .map(|i| (0..5 + i).map(|j| ((j * 37 + i * 11) % 256) as u32).collect())
            .collect();
        let reqs = |_: &str| -> Vec<GenRequest> {
            prompts.iter().enumerate().map(|(i, p)| req(i as u64, p.clone(), 8)).collect()
        };
        let a = start(RuntimeConfig::tiny(2), Arc::new(TokenThrottle::default()));
        let out_throttle = a.generate_all(reqs("gllm")).expect("runtime stalled");
        a.shutdown();
        let b = start(RuntimeConfig::tiny(2), Arc::new(SarathiServe::default()));
        let out_sarathi = b.generate_all(reqs("sarathi")).expect("runtime stalled");
        b.shutdown();
        assert_eq!(out_throttle, out_sarathi);
        for (i, p) in prompts.iter().enumerate() {
            assert_eq!(out_throttle[&(i as u64)], reference_generation(p, 8), "req {i}");
        }
    }

    #[test]
    fn concurrent_requests_all_complete_with_correct_lengths() {
        let server = start(RuntimeConfig::tiny(2), Arc::new(TokenThrottle::default()));
        let reqs: Vec<GenRequest> = (0..10)
            .map(|i| req(i, vec![(i % 250) as u32 + 1; 3 + (i as usize % 5)], 4 + (i as usize % 7)))
            .collect();
        let expected: Vec<usize> = reqs.iter().map(|r| r.max_new).collect();
        let out = server.generate_all(reqs).expect("runtime stalled");
        let rec = server.shutdown();
        for (i, want) in expected.iter().enumerate() {
            assert_eq!(out[&(i as u64)].len(), *want, "request {i}");
        }
        assert_eq!(rec.finished_count(), 10);
        // Wall-clock metrics are sane.
        for (_, tl) in rec.timelines() {
            assert!(tl.ttft().unwrap() >= 0.0);
            assert!(tl.e2el().unwrap() >= tl.ttft().unwrap());
        }
    }

    #[test]
    fn cpp_runtime_produces_identical_outputs() {
        // Chunk overlap across stages must not change a single token.
        let prompts: Vec<Vec<u32>> = (0..4)
            .map(|i| (0..30 + i * 5).map(|j| ((j * 13 + i * 7) % 256) as u32).collect())
            .collect();
        let reqs: Vec<GenRequest> =
            prompts.iter().enumerate().map(|(i, p)| req(i as u64, p.clone(), 6)).collect();
        // Small chunks force multi-chunk prefills.
        let policy = || Arc::new(SarathiServe::new(Tokens(16)));
        let classic = start(RuntimeConfig::tiny(3), policy());
        let out_classic = classic.generate_all(reqs.clone()).expect("runtime stalled");
        classic.shutdown();
        let cpp_cfg = RuntimeConfig { cpp: true, ..RuntimeConfig::tiny(3) };
        let with_cpp = start(cpp_cfg, policy());
        let out_cpp = with_cpp.generate_all(reqs).expect("runtime stalled");
        with_cpp.shutdown();
        assert_eq!(out_classic, out_cpp, "CPP changed generated tokens");
        for (i, p) in prompts.iter().enumerate() {
            assert_eq!(out_cpp[&(i as u64)], reference_generation(p, 6), "request {i}");
        }
    }

    #[test]
    fn oversized_request_is_rejected() {
        let server = start(RuntimeConfig::tiny(1), Arc::new(TokenThrottle::default()));
        // Capacity is 256 blocks × 4 = 1024 tokens. Request 3's size
        // overflows `usize` (once a debug-build panic in the driver and a
        // wrapped admission in release); the request after it is served.
        let overflowing = req(3, vec![1, 2, 3], usize::MAX);
        let reqs = vec![req(1, vec![1; 2000], 10), overflowing, req(2, vec![1, 2, 3], 3)];
        let out = server.generate_all(reqs).expect("runtime stalled");
        server.shutdown();
        assert!(out[&1].is_empty(), "oversized request must be rejected");
        assert!(out[&3].is_empty(), "overflowing request must be rejected");
        assert_eq!(out[&2].len(), 3);
    }

    #[test]
    fn duplicate_live_id_is_rejected_and_serving_continues() {
        let server = start(RuntimeConfig::tiny(2), Arc::new(TokenThrottle::default()));
        let prompt = vec![5, 9, 33, 120, 7];
        server.submit(req(1, prompt.clone(), 24)).expect("driver live");
        server.submit(req(1, vec![1, 2, 3], 4)).expect("driver live");
        let (mut first, mut rejected, mut done) = (Vec::new(), 0, false);
        while !done {
            match server.next_event(Duration::from_secs(30)).expect("runtime live") {
                StreamEvent::Token { seq: 1, token, finished } => {
                    first.push(token);
                    done = finished;
                }
                StreamEvent::Rejected { seq: 1 } => rejected += 1,
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert_eq!(rejected, 1, "the second request under id 1 is refused");
        assert_eq!(first, reference_generation(&prompt, 24), "the live request is untouched");
        // The driver survived: a later request is served in full.
        let out = server.generate_all(vec![req(2, vec![4, 8, 15], 5)]).expect("runtime stalled");
        assert_eq!(out[&2], reference_generation(&[4, 8, 15], 5));
        server.shutdown();
    }

    #[test]
    fn kv_pressure_preempts_and_recomputes_without_changing_outputs() {
        // Tiny cache: 16 blocks × 4 = 64 tokens for 4 requests needing
        // 4 × (10 + 8) = 72 tokens at peak.
        let cfg = RuntimeConfig {
            kv_blocks: 16,
            ..RuntimeConfig::tiny(2)
        };
        let prompts: Vec<Vec<u32>> =
            (0..4).map(|i| (0..10).map(|j| ((i * 31 + j * 7) % 256) as u32).collect()).collect();
        let server = start(cfg, Arc::new(SarathiServe::default()));
        let out = server
            .generate_all(
                prompts.iter().enumerate().map(|(i, p)| req(i as u64, p.clone(), 8)).collect(),
            )
            .expect("runtime stalled");
        let rec = server.shutdown();
        assert_eq!(rec.finished_count(), 4);
        for (i, p) in prompts.iter().enumerate() {
            assert_eq!(out[&(i as u64)], reference_generation(p, 8), "request {i}");
        }
    }

    #[test]
    fn runtime_audit_report_is_clean_after_mixed_load() {
        // Clean-drain leak check on the threaded plane: preemption-heavy
        // load, then shutdown_full must surface a drained, violation-free
        // audit with batches actually checked.
        let cfg = RuntimeConfig { kv_blocks: 16, ..RuntimeConfig::tiny(2) };
        let server = start(cfg, Arc::new(TokenThrottle::default()));
        let reqs: Vec<GenRequest> =
            (0..6).map(|i| req(i, vec![(i % 200) as u32 + 1; 6 + i as usize], 5)).collect();
        server.generate_all(reqs).expect("runtime stalled");
        let out = server.shutdown_full();
        let audit = out.audit.expect("audit defaults on");
        audit.assert_clean("runtime");
        assert!(audit.batches_checked > 0);
        assert_eq!(audit.final_snapshot.in_flight, 0, "pipeline drained");
        assert_eq!(audit.final_snapshot.live_kv_seqs, 0, "KV drained");
        assert_eq!(audit.final_snapshot.faults_injected, 0, "no fault plan armed");
        assert_eq!(audit.final_snapshot.recoveries, 0);
        assert_eq!(audit.final_snapshot.requests_failed, 0);
    }

    /// A policy that never schedules anything: the pipeline wedges with
    /// work pending, which `generate_all` must report rather than hang.
    struct NeverSchedule;

    impl gllm_core::SchedulePolicy for NeverSchedule {
        fn plan(&self, _view: &gllm_core::ScheduleView) -> gllm_core::BatchPlan {
            gllm_core::BatchPlan::default()
        }

        fn name(&self) -> &'static str {
            "never"
        }
    }

    #[test]
    fn stalled_runtime_returns_an_error_with_audit_context() {
        let cfg = RuntimeConfig {
            stall_timeout: Duration::from_millis(200),
            ..RuntimeConfig::tiny(1)
        };
        let server = start(cfg, Arc::new(NeverSchedule));
        let err = server
            .generate_all(vec![req(1, vec![1, 2, 3], 4)])
            .expect_err("a never-scheduling policy must stall");
        assert_eq!(err.pending, 1);
        assert_eq!(err.waited, Duration::from_millis(200));
        let msg = err.to_string();
        assert!(msg.contains("runtime stalled"), "got: {msg}");
        // No batch was ever scheduled, so the auditor never snapshotted.
        assert!(err.snapshot.is_none());
        // Shutdown still works: nothing in flight, audit clean (the
        // undrained pool skips the leak check).
        server.shutdown();
    }

    #[test]
    fn submit_after_shutdown_fails_gracefully() {
        // Regression: a detached Submitter outliving the server must get a
        // SubmitError, not panic on a closed channel.
        let server = start(RuntimeConfig::tiny(2), Arc::new(TokenThrottle::default()));
        let submitter = server.submitter();
        assert!(submitter.submit(req(1, vec![1, 2, 3], 2)).is_ok(), "live driver accepts");
        let mut open = 1;
        while open > 0 {
            match server.next_event(Duration::from_secs(30)).expect("runtime live") {
                StreamEvent::Token { finished: true, .. } | StreamEvent::Rejected { .. } => {
                    open -= 1
                }
                _ => {}
            }
        }
        server.shutdown();
        let err = submitter.submit(req(2, vec![1], 1)).expect_err("driver is gone");
        assert_eq!(err, SubmitError);
        assert!(err.to_string().contains("not submitted"));
    }

    #[test]
    fn dropping_the_server_stops_the_driver() {
        // Regression: a surviving Submitter kept the driver running after
        // its Server was dropped without a shutdown.
        let server = start(RuntimeConfig::tiny(2), Arc::new(TokenThrottle::default()));
        let submitter = server.submitter();
        drop(server);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut id = 0;
        while submitter.submit(req(id, vec![1, 2, 3], 1)).is_ok() {
            id += 1;
            assert!(std::time::Instant::now() < deadline, "driver still accepting after drop");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn idle_spell_longer_than_the_heartbeat_does_not_trigger_recovery() {
        // Regression: the heartbeat window ran from the last completion, so
        // the first batch after an idle spell longer than `batch_timeout`
        // looked wedged at once and tore the pipeline down.
        let cfg = RuntimeConfig {
            batch_timeout: Duration::from_millis(100),
            ..RuntimeConfig::tiny(2)
        };
        let server = start(cfg, Arc::new(TokenThrottle::default()));
        std::thread::sleep(Duration::from_millis(300));
        server.generate_all(vec![req(1, vec![5, 9, 33], 4)]).expect("runtime stalled");
        let out = server.shutdown_full();
        let audit = out.audit.expect("audit defaults on");
        assert_eq!(audit.final_snapshot.recoveries, 0, "an idle spell is not a failure");
        assert_eq!(audit.final_snapshot.faults_injected, 0);
    }

    #[test]
    fn generate_all_reports_disconnect_instead_of_hanging() {
        // Regression: if the driver dies while the frontend handle is still
        // alive, generate_all must return a disconnected StallError.
        let mut server = start(RuntimeConfig::tiny(1), Arc::new(TokenThrottle::default()));
        server.req_tx.send(DriverMsg::Shutdown).expect("driver alive");
        if let Some(h) = server.driver.take() {
            let _ = h.join();
        }
        let err = server.generate_all(vec![req(9, vec![1, 2], 2)]).expect_err("driver is gone");
        assert!(err.disconnected, "got: {err}");
        assert_eq!(err.pending, 1);
        assert!(err.to_string().contains("disconnected"), "got: {err}");
    }

    #[test]
    fn runtime_records_a_pipeline_trace_when_asked() {
        let cfg = RuntimeConfig { record_trace: true, ..RuntimeConfig::tiny(2) };
        let server = start(cfg, Arc::new(TokenThrottle::default()));
        server
            .generate_all(vec![req(1, vec![5, 9, 33], 6)])
            .expect("runtime stalled");
        let out = server.shutdown_full();
        assert!(out.trace.is_enabled());
        assert!(
            out.trace.stage_busy_total() > 0.0,
            "stage-0 compute spans must be recorded"
        );
        let doc = out.trace.to_chrome_trace_string();
        assert!(doc.contains("\"traceEvents\""));
    }
}
