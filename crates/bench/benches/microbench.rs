//! Criterion micro-benchmarks.
//!
//! `scheduler_overhead` verifies the paper's §3.4 claim that Token
//! Throttling costs ≈0.045 ms per iteration of "lightweight system state
//! collection and few mathematical computations" — here the full
//! view-build + plan step must land well under a model forward pass
//! (20–800 ms), and so must one whole scheduling step (view, plan, KV
//! admission, commit, completion) at an overloaded point's queue depth. The remaining groups size the substrates: KV cache
//! operations, the CPU transformer's decode step, and a complete
//! discrete-event serving experiment. `auditor_closed_loop_history` checks
//! that the always-on invariant auditor's cost per request stays flat as
//! completed requests accumulate.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use gllm_core::sarathi::SarathiServe;
use gllm_core::throttle::TokenThrottle;
use gllm_core::{
    admit, blocks_to_append, BatchPlan, DecodeSlot, PrefillChunk, RequestPool, SchedulePolicy, SeqSlot,
};
use gllm_kvcache::{Blocks, KvCacheManager, Tokens};
use gllm_metrics::{InvariantAuditor, KvObservation};
use gllm_model::{ClusterSpec, ModelConfig};
use gllm_sim::engine::EngineConfig;
use gllm_sim::{run_experiment, Deployment, SystemConfig};
use gllm_transformer::sampler::SamplingParams;
use gllm_transformer::CausalLM;
use gllm_workload::{Dataset, Trace};
use std::cell::RefCell;
use std::hint::black_box;

/// A pool + cache mid-flight: `decoding` sequences past a 256-token
/// prompt, then `waiting` 1024-token prompts, over `blocks` KV blocks.
fn loaded_state(decoding: u64, waiting: u64, blocks: usize) -> (RequestPool, KvCacheManager) {
    let mut pool = RequestPool::new(1024);
    let mut kv = KvCacheManager::new(Blocks(blocks), Tokens(16));
    for id in 0..decoding {
        let slot = pool.add(id, 256, 128);
        let plan = BatchPlan {
            prefill: vec![PrefillChunk {
                seq: id,
                slot,
                tokens: Tokens(256),
                context_before: Tokens(0),
                completes_prompt: true,
            }],
            decode: vec![],
        };
        kv.append(id, Tokens(256)).expect("fits");
        pool.commit(&plan);
        pool.complete(&plan);
    }
    for id in decoding..decoding + waiting {
        pool.add(id, 1024, 128);
    }
    (pool, kv)
}

fn bench_scheduler(c: &mut Criterion) {
    let (pool, kv) = loaded_state(64, 8, 16_384);
    let throttle = TokenThrottle::default();
    let sarathi = SarathiServe::default();
    let mut g = c.benchmark_group("scheduler_overhead");
    g.bench_function("token_throttle_view_plus_plan", |b| {
        b.iter(|| {
            let view = pool.view(kv.free_rate(), kv.free_blocks().to_tokens(kv.block_size()), kv.block_size(), 4);
            black_box(throttle.plan(&view))
        })
    });
    g.bench_function("sarathi_view_plus_plan", |b| {
        b.iter(|| {
            let view = pool.view(kv.free_rate(), kv.free_blocks().to_tokens(kv.block_size()), kv.block_size(), 4);
            black_box(sarathi.plan(&view))
        })
    });
    // The depth of `sim_sweep`'s overloaded points: ~110 decoding and
    // ~2 000 waiting sequences. Each iteration steps a fresh copy; the
    // used copy is parked and dropped in the next (untimed) setup.
    let (pool, kv) = loaded_state(110, 2_000, 65_536);
    let parked = RefCell::new(None);
    g.bench_function("token_throttle_full_step_2000_waiting", |b| {
        b.iter_batched(
            || {
                parked.borrow_mut().take();
                (pool.clone(), kv.clone())
            },
            |(mut pool, mut kv)| {
                let view = pool.view(kv.free_rate(), kv.free_blocks().to_tokens(kv.block_size()), kv.block_size(), 4);
                let admission = admit(throttle.plan(&view), &mut pool, &mut kv);
                pool.commit(&admission.plan);
                black_box(pool.complete(&admission.plan));
                *parked.borrow_mut() = Some((pool, kv));
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn bench_kvcache(c: &mut Criterion) {
    let mut g = c.benchmark_group("kvcache");
    g.bench_function("append_extend_free_cycle", |b| {
        b.iter_batched(
            || KvCacheManager::new(Blocks(4096), Tokens(16)),
            |mut kv| {
                for id in 0..32u64 {
                    kv.append(id, Tokens(200)).expect("fits");
                }
                for id in 0..32u64 {
                    for _ in 0..16 {
                        kv.append(id, Tokens(1)).expect("fits");
                    }
                }
                for id in 0..32u64 {
                    kv.free(id).expect("live");
                }
                black_box(kv.free_rate())
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_transformer(c: &mut Criterion) {
    let mut g = c.benchmark_group("transformer");
    g.bench_function("tiny_decode_step", |b| {
        let mut lm = CausalLM::new(ModelConfig::tiny(), 1, 256, 16, 7);
        lm.prefill(1, &[1, 2, 3, 4, 5, 6, 7, 8], 1024).expect("prefill");
        let mut tok = 9u32;
        b.iter(|| {
            // Criterion runs thousands of iterations; recycle the sequence
            // before the KV cache fills so the step cost stays stationary.
            if lm.kv().free_rate() < 0.1 {
                lm.release(1).expect("live");
                lm.prefill(1, &[1, 2, 3, 4, 5, 6, 7, 8], 1024).expect("prefill");
                tok = 9;
            }
            let logits = lm.decode_step(1, tok).expect("capacity");
            tok = gllm_transformer::sampler::argmax(&logits);
            black_box(tok)
        })
    });
    g.bench_function("tiny_prefill_64_tokens", |b| {
        let prompt: Vec<u32> = (0..64).map(|i| (i % 256) as u32).collect();
        let mut id = 0u64;
        let mut lm = CausalLM::new(ModelConfig::tiny(), 1, 8192, 16, 7);
        b.iter(|| {
            id += 1;
            let l = lm.prefill(id, &prompt, 1024).expect("capacity");
            lm.release(id).expect("live");
            black_box(l[0])
        })
    });
    let _ = SamplingParams::greedy();
    g.finish();
}

fn bench_simulator(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator");
    g.sample_size(10);
    let deployment = Deployment::new(ModelConfig::qwen2_5_32b(), ClusterSpec::intra_node_l20(4));
    let trace = Trace::paper_online(Dataset::ShareGpt, 2.0, 3);
    let cfg = EngineConfig {
        record_token_trace: false,
        record_utilization: false,
        ..EngineConfig::default()
    };
    g.bench_function("serving_experiment_2rps_128s", |b| {
        b.iter(|| black_box(run_experiment(&trace, &SystemConfig::gllm(), &deployment, &cfg)))
    });
    g.finish();
}

/// A closed loop of 16 requests (64-token prompt, 8 output tokens, one
/// micro-batch in flight) driven through the auditor alone, with the
/// events and KV observations a faithful scheduling step would report.
#[derive(Clone)]
struct AuditLoop {
    audit: InvariantAuditor,
    /// `(seq, context, decoded)` of the open requests.
    live: Vec<(u64, Tokens, usize)>,
    next_seq: u64,
    batch: u64,
    used: Blocks,
    completed: u64,
}

impl AuditLoop {
    const TOTAL: Blocks = Blocks(4096);
    const BLOCK: Tokens = Tokens(16);

    fn new() -> Self {
        Self {
            audit: InvariantAuditor::new(Self::TOTAL, Self::BLOCK, 1),
            live: Vec::new(),
            next_seq: 0,
            batch: 0,
            used: Blocks::ZERO,
            completed: 0,
        }
    }

    fn obs(&self) -> KvObservation {
        KvObservation { free_blocks: Self::TOTAL - self.used, used_blocks: self.used }
    }

    /// Schedule and complete batches until `n` more requests finished.
    fn run(&mut self, n: u64) {
        let target = self.completed + n;
        while self.completed < target {
            while self.live.len() < 16 {
                self.audit.on_arrival(self.next_seq);
                self.live.push((self.next_seq, Tokens::ZERO, 0));
                self.next_seq += 1;
            }
            let mut plan = BatchPlan::default();
            for &(seq, context_before, _) in &self.live {
                if context_before.is_zero() {
                    plan.prefill.push(PrefillChunk {
                        seq,
                        slot: SeqSlot::default(),
                        tokens: Tokens(64),
                        context_before,
                        completes_prompt: true,
                    });
                } else {
                    plan.decode.push(DecodeSlot { seq, slot: SeqSlot::default(), context_before });
                }
            }
            let before = self.obs();
            for (_, ctx, decoded) in &mut self.live {
                let tokens = if ctx.is_zero() {
                    Tokens(64)
                } else {
                    *decoded += 1;
                    Tokens(1)
                };
                self.used += blocks_to_append(*ctx, tokens, Self::BLOCK);
                *ctx += tokens;
            }
            let t = self.batch as f64;
            self.audit.on_schedule(t, self.batch, &plan, &plan, None, before, self.obs());
            let mut finished = Vec::new();
            let used = &mut self.used;
            self.live.retain(|&(seq, ctx, decoded)| {
                let done = decoded == 8;
                if done {
                    *used -= ctx.to_blocks(Self::BLOCK);
                    finished.push(seq);
                }
                !done
            });
            self.completed += finished.len() as u64;
            self.audit.on_complete(t, self.batch, &finished, self.obs());
            self.batch += 1;
        }
    }
}

fn bench_auditor(c: &mut Criterion) {
    // Each iteration audits 100 more requests on a copy of a loop that
    // has already completed `history`; divide by 100 for per request. The
    // used copy is parked and dropped in the next (untimed) setup, so
    // freeing the history stays out of the measurement.
    let mut g = c.benchmark_group("auditor_closed_loop_history");
    for (name, history) in [("100_requests_after_1k", 1_000), ("100_requests_after_8k", 8_000)] {
        let mut warm = AuditLoop::new();
        warm.run(history);
        assert!(warm.audit.is_clean(), "{:?}", warm.audit.violations());
        let parked = RefCell::new(None);
        g.bench_function(name, |b| {
            b.iter_batched(
                || {
                    parked.borrow_mut().take();
                    warm.clone()
                },
                |mut lp| {
                    lp.run(100);
                    black_box(lp.audit.is_clean());
                    *parked.borrow_mut() = Some(lp);
                },
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

criterion_group!(benches, bench_scheduler, bench_kvcache, bench_transformer, bench_simulator, bench_auditor);
criterion_main!(benches);
