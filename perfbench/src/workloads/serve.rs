//! `serve_chat` and `serve_batch`: load on `gllm_runtime::Server`, driven
//! in-process from one thread with `submit`/`next_event`, with `gllm
//! serve`'s defaults (tiny model, weight seed 2024, 2 stages, Token
//! Throttling, greedy decoding).

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gllm_core::{SchedulePolicy, TokenThrottle};
use gllm_metrics::{PipelineTrace, TraceEventKind};
use gllm_model::ModelConfig;
use gllm_runtime::{GenRequest, RuntimeConfig, Server, StreamEvent};
use gllm_transformer::{CausalLM, SamplingParams};
use gllm_workload::Dataset;

use super::{probes, repeat_setup, stratified_pool, Ctx, Layers, Pass};
use crate::closed_loop::{run_closed_loop, Backend, BackendEvent, Job, LoopConfig, LoopResult};
use crate::record::{settle, BlockSummary, Digest, Slo};
use crate::stats::{mean, percentile};
use crate::trace::{snapshot, span, PlanStats, TimedPolicy, Tracer};

/// Pipeline stages, as `gllm serve` starts them.
pub const STAGES: usize = 2;
/// Weight seed, as `gllm serve` starts it.
pub const WEIGHT_SEED: u64 = 2024;

/// How a serving workload loads the runtime.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Keep `concurrency` requests open; wall time is measured per block
    /// of `block` completions.
    Closed {
        /// Requests kept open.
        concurrency: usize,
        /// Completions per wall-time block.
        block: usize,
    },
    /// Submit the whole pool at once and wait for all of it; repeat.
    Batch,
}

/// One serving workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Lengths come from this dataset ...
    pub dataset: Dataset,
    /// ... divided by this factor.
    pub scale: usize,
    /// Distinct requests.
    pub pool: usize,
    /// KV blocks of the runtime.
    pub kv_blocks: usize,
    /// Load pattern.
    pub load: Load,
    /// Limits for `goodput_tok_s`.
    pub slo: Slo,
    /// Pool entries re-generated with `CausalLM::generate` as reference.
    pub reference_samples: usize,
}

/// `serve_chat`: a closed loop of 16 ShareGPT-shaped (×¼) requests against
/// 4096 KV blocks; decode-heavy. A block is one pass over the pool, so
/// every block serves the same mix.
pub const CHAT: Shape = Shape {
    dataset: Dataset::ShareGpt,
    scale: 4,
    pool: 256,
    kv_blocks: 4096,
    load: Load::Closed {
        concurrency: 16,
        block: 256,
    },
    slo: Slo {
        ttft_s: 0.25,
        tpot_s: 0.025,
    },
    reference_samples: 8,
};

/// `serve_batch`: an offline batch of Azure-shaped (×¼) requests against a
/// KV cache smaller than the batch's total context; prefill-heavy, with a
/// deep waiting queue and KV pressure.
pub const BATCH: Shape = Shape {
    dataset: Dataset::Azure,
    scale: 4,
    pool: 32,
    kv_blocks: 1024,
    load: Load::Batch,
    slo: Slo {
        ttft_s: 30.0,
        tpot_s: 0.5,
    },
    reference_samples: 6,
};

/// The runtime as a closed-loop [`Backend`].
struct RuntimeBackend<'a> {
    server: &'a Server,
    tracer: Option<&'a Tracer>,
}

impl Backend for RuntimeBackend<'_> {
    fn submit(&mut self, id: u64, job: &Job) -> bool {
        let req = GenRequest {
            id,
            prompt: job.prompt.clone(),
            max_new: job.max_new,
            params: SamplingParams::greedy(),
        };
        let start = Instant::now();
        let ok = self.server.submit(req).is_ok();
        if let Some(t) = self.tracer {
            t.record_req("runtime.submit", id, start, Instant::now());
        }
        ok
    }

    fn next_event(&mut self, timeout: Duration) -> Option<BackendEvent> {
        self.server.next_event(timeout).map(|ev| match ev {
            StreamEvent::Token {
                seq,
                token,
                finished,
            } => BackendEvent::Token {
                id: seq,
                token,
                finished,
            },
            StreamEvent::Rejected { seq } => BackendEvent::Rejected { id: seq },
            StreamEvent::Failed { seq } => BackendEvent::Failed { id: seq },
        })
    }
}

/// Compare the runtime's outputs for the first `samples` pool entries with
/// `CausalLM::generate` on the same weights. Returns how many were checked.
fn check_reference(
    pool: &[Job],
    outputs: &dyn Fn(usize) -> Option<Vec<u32>>,
    samples: usize,
    pass: &mut Pass,
    tracer: Option<&Tracer>,
) -> usize {
    let mut lm = CausalLM::new(ModelConfig::tiny(), STAGES, 4096, 4, WEIGHT_SEED);
    let mut checked = 0;
    for (i, job) in pool.iter().enumerate().take(samples) {
        let Some(got) = outputs(i) else { continue };
        let want = span(tracer, "transformer.generate", || {
            lm.generate(
                i as u64,
                &job.prompt,
                job.max_new,
                1024,
                &SamplingParams::greedy(),
            )
        });
        let _ = lm.release(i as u64);
        match want {
            Ok(want) if want == got => checked += 1,
            Ok(_) => pass.error(format!(
                "pool entry {i}: runtime tokens differ from CausalLM::generate"
            )),
            Err(e) => pass.error(format!(
                "pool entry {i}: reference generation failed: {e:?}"
            )),
        }
    }
    checked
}

/// Digest of the outputs of the served pool entries among `0..n`, by
/// index.
fn streams_digest(outputs: &dyn Fn(usize) -> Option<Vec<u32>>, n: usize) -> String {
    let mut d = Digest::default();
    for i in 0..n {
        if let Some(toks) = outputs(i) {
            d.u64(i as u64).tokens(&toks);
        }
    }
    d.hex()
}

/// Add the `core.*` and `kvcache.free_rate_mean` metrics of `s`; `wall_s`
/// is the traced pass's measured time.
pub fn insert_plan_stats(l: &mut Layers, s: &PlanStats, wall_s: f64) {
    let plan_s = s.plan_time.as_secs_f64();
    l.insert("core.plan_calls", s.calls as f64);
    l.insert("core.plan_s", plan_s);
    l.insert("core.plan_useful_ratio", s.useful_ratio());
    l.insert(
        "core.plan_wall_share",
        if wall_s > 0.0 { plan_s / wall_s } else { 0.0 },
    );
    l.insert("core.wp_tokens_mean", s.wp_tokens.mean());
    l.insert("core.rd_seqs_mean", s.rd_seqs.mean());
    l.insert("core.batch_tokens_mean", s.batch_tokens.mean());
    l.insert("core.batch_tokens_cv", s.batch_tokens.cv());
    l.insert("core.prefill_share", s.prefill_share());
    l.insert("kvcache.free_rate_mean", s.kv_free_rate.mean());
}

/// Add the `runtime.*` metrics derived from the driver's pipeline trace.
fn insert_runtime_trace(l: &mut Layers, trace: &PipelineTrace) {
    let events = trace.events();
    let (mut batches, mut recoveries, mut preemptions) = (0u64, 0u64, 0u64);
    let mut busy0 = 0.0;
    let mut gaps = Vec::new();
    let mut last_complete: Option<f64> = None;
    for e in events {
        match &e.kind {
            TraceEventKind::Schedule { .. } => {
                batches += 1;
                if let Some(t) = last_complete.take() {
                    gaps.push((e.t_s - t) * 1e6);
                }
            }
            TraceEventKind::Stage {
                stage: 0, end_s, ..
            } => busy0 += end_s - e.t_s,
            TraceEventKind::Complete { .. } => last_complete = Some(e.t_s),
            TraceEventKind::Recovery { .. } => recoveries += 1,
            TraceEventKind::Preempt { .. } => preemptions += 1,
            _ => {}
        }
    }
    let span_s = match (events.first(), events.last()) {
        (Some(a), Some(b)) => b.t_s - a.t_s,
        _ => 0.0,
    };
    l.insert("runtime.batches", batches as f64);
    l.insert("runtime.recoveries", recoveries as f64);
    l.insert(
        "runtime.stage0_busy_share",
        if span_s > 0.0 { busy0 / span_s } else { 0.0 },
    );
    l.insert(
        "runtime.complete_to_schedule_us_p50",
        percentile(&gaps, 50.0),
    );
    l.insert("kvcache.preemptions", preemptions as f64);
}

/// Serve the pool under `shape.load` for `ctx.seconds`.
pub fn run(shape: Shape, ctx: &Ctx, setups: usize, tracer: Option<&Arc<Tracer>>) -> Pass {
    let mut pass = Pass::default();
    let stats = Arc::new(Mutex::new(PlanStats::default()));
    let cfg = RuntimeConfig {
        kv_blocks: shape.kv_blocks,
        record_trace: tracer.is_some(),
        ..RuntimeConfig::tiny(STAGES)
    };
    let env = repeat_setup(
        setups,
        &mut pass,
        |pass| {
            let start = Instant::now();
            let pool = stratified_pool(shape.dataset, shape.pool, shape.scale, ctx.seed);
            pass.synth_s.push(start.elapsed().as_secs_f64());
            let throttle: Arc<dyn SchedulePolicy> = Arc::new(TokenThrottle::default());
            let policy: Arc<dyn SchedulePolicy> = match tracer {
                Some(t) => TimedPolicy::sharing(throttle, Arc::clone(&stats), Some(Arc::clone(t))),
                None => throttle,
            };
            (pool, Server::start(cfg.clone(), policy))
        },
        |(_, server)| {
            if let Ok(s) = server {
                s.shutdown_full();
            }
        },
    );
    let (pool, server) = match env {
        (pool, Ok(server)) => (pool, server),
        (_, Err(e)) => {
            pass.error(format!("Server::start: {e}"));
            return pass;
        }
    };
    let tracer_ref = tracer.map(Arc::as_ref);
    let mut backend = RuntimeBackend {
        server: &server,
        tracer: tracer_ref,
    };
    let start = Instant::now();
    let mut results: Vec<LoopResult> = Vec::new();
    match shape.load {
        Load::Closed { concurrency, block } => {
            let cfg = LoopConfig {
                concurrency,
                warmup: concurrency,
                duration: Duration::from_secs_f64(ctx.seconds),
                stall_timeout: Duration::from_secs(60),
                block,
                first_id: 0,
                limit: None,
            };
            let r = run_closed_loop(&mut backend, &pool, &cfg);
            results.push(r);
        }
        Load::Batch => {
            let n = pool.len();
            while results.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
                let cfg = LoopConfig {
                    concurrency: n,
                    warmup: 0,
                    duration: Duration::from_secs(600),
                    stall_timeout: Duration::from_secs(60),
                    block: n,
                    first_id: (results.len() * n) as u64,
                    limit: Some(n as u64),
                };
                let r = run_closed_loop(&mut backend, &pool, &cfg);
                results.push(r);
            }
        }
    }
    let measured_s = start.elapsed().as_secs_f64();
    let out = server.shutdown_full();
    if let Some(audit) = out.audit.as_ref().filter(|a| !a.is_clean()) {
        pass.error(format!(
            "runtime audit: {} violations",
            audit.violations.len()
        ));
    }

    // Throughput, goodput and latency of each block, then settled.
    for r in &results {
        match shape.load {
            Load::Closed { .. } => {
                let mut from = 0;
                for (&end, &wall) in r.block_ends.iter().zip(&r.block_walls) {
                    pass.blocks
                        .push(BlockSummary::of(&r.window[from..end], wall, shape.slo));
                    from = end;
                }
            }
            Load::Batch => pass
                .blocks
                .push(BlockSummary::of(&r.window, r.window_s, shape.slo)),
        }
    }
    pass.summary = settle(&pass.blocks);
    pass.attempted = results.iter().map(|r| r.attempted).sum();
    pass.failed = results.iter().map(|r| r.failed).sum();

    // Outputs: stable across repetitions, equal to the reference model.
    let first = &results[0].outputs;
    for (i, r) in results.iter().enumerate().skip(1) {
        for (job, toks) in &r.outputs {
            if first.get(job).is_some_and(|f| f != toks) {
                pass.failed += 1;
                pass.error(format!("batch {i}: pool entry {job} differs from batch 0"));
            }
        }
    }
    if results.iter().any(|r| r.stalled) {
        pass.error("the runtime stopped responding");
    }
    if pass.failed > 0 {
        pass.error(format!(
            "{} of {} requests failed or mismatched",
            pass.failed, pass.attempted
        ));
    }
    let outputs = |i: usize| first.get(&i).cloned();
    let checked = check_reference(
        &pool,
        &outputs,
        shape.reference_samples,
        &mut pass,
        tracer_ref,
    );
    if checked == 0 {
        pass.error("no pool entry was checked against CausalLM::generate");
    }
    // The run's digest covers the reference entries, which every pass
    // serves; the digest of every stream depends on how many were served.
    pass.digest = streams_digest(&outputs, shape.reference_samples);
    pass.notes.push((
        "streams_digest".into(),
        streams_digest(&outputs, pool.len()),
    ));
    pass.notes
        .push(("reference_checked".into(), checked.to_string()));
    pass.notes
        .push(("distinct_served".into(), first.len().to_string()));

    if let Some(t) = tracer {
        let plans = snapshot(&stats);
        pass.notes.push((
            "mean_decode_batch".into(),
            format!("{:.2}", plans.decode_seqs.mean()),
        ));
        let l = &mut pass.layers;
        insert_plan_stats(l, &plans, measured_s);
        insert_runtime_trace(l, &out.trace);
        let submitted: u64 = results.iter().map(|r| r.attempted).sum();
        let submit_s: f64 = results.iter().map(|r| r.submit_s).sum();
        l.insert(
            "runtime.submit_us_mean",
            submit_s * 1e6 / submitted.max(1) as f64,
        );
        l.insert(
            "runtime.requests_failed",
            results.iter().map(|r| r.abandoned).sum::<u64>() as f64,
        );
        l.insert(
            "kvcache.rejected",
            results.iter().map(|r| r.rejected).sum::<u64>() as f64,
        );
        let prompts: Vec<&[u32]> = pool.iter().map(|j| j.prompt.as_slice()).collect();
        probes::transformer(l, &prompts, Some(t.as_ref()));
        pass.runtime_trace = Some(out.trace);
    }
    pass.notes.push((
        "mean_prompt_tok".into(),
        format!(
            "{:.1}",
            mean(
                &pool
                    .iter()
                    .map(|j| j.prompt.len() as f64)
                    .collect::<Vec<_>>()
            )
        ),
    ));
    pass.notes.push((
        "mean_output_tok".into(),
        format!(
            "{:.1}",
            mean(&pool.iter().map(|j| j.max_new as f64).collect::<Vec<_>>())
        ),
    ));
    pass
}
