//! Micro-benchmarks, each reported as the median per-iteration time with
//! its quartiles over repeated windows (`gllm_bench::timing`).
//!
//! `scheduler_overhead` verifies the paper's §3.4 claim that Token
//! Throttling costs ≈0.045 ms per iteration of "lightweight system state
//! collection and few mathematical computations" — here the full
//! view-build + plan step must land well under a model forward pass
//! (20–800 ms), and so must one whole `SchedulerStep` round (propose,
//! schedule with KV admission and commit, complete, all audited, as the
//! simulator runs it) at an overloaded point's queue depth. The remaining
//! groups size the substrates: KV cache operations, the CPU transformer's
//! decode step at fixed context lengths, and a complete discrete-event
//! serving experiment. `auditor_closed_loop_history` checks that the
//! always-on invariant auditor's cost per request stays flat as completed
//! requests accumulate.

use gllm_bench::timing::{per_iteration, per_iteration_batched, Spread, WINDOWS};
use gllm_core::sarathi::SarathiServe;
use gllm_core::throttle::TokenThrottle;
use gllm_core::{
    blocks_to_append, BatchPlan, DecodeSlot, PrefillChunk, RequestPool, SchedulePolicy, SeqSlot,
};
use gllm_kvcache::{Blocks, KvCacheManager, Tokens};
use gllm_metrics::{InvariantAuditor, KvObservation, MetricsRecorder, Scheduled, SchedulerStep};
use gllm_model::{ClusterSpec, ModelConfig};
use gllm_sim::engine::EngineConfig;
use gllm_sim::{run_experiment, Deployment, SystemConfig};
use gllm_transformer::CausalLM;
use gllm_workload::{Dataset, Trace};
use std::cell::RefCell;
use std::convert::Infallible;
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
        kv.append(slot, id, Tokens(256)).expect("fits");
        pool.commit(&plan);
        pool.complete(&plan);
    }
    for id in decoding..decoding + waiting {
        pool.add(id, 1024, 128);
    }
    (pool, kv)
}

/// Print one benchmark's line: median [q1–q3] time per iteration.
fn report(label: &str, s: Spread) {
    println!("{label:<56} {s}/iter  (median [q1–q3] of {WINDOWS} windows)");
}

fn bench_scheduler() {
    let (pool, kv) = loaded_state(64, 8, 16_384);
    let throttle = TokenThrottle::default();
    let sarathi = SarathiServe::default();
    let throttle_plan = per_iteration(|| {
        let view = pool.view(kv.free_rate(), kv.free_blocks().to_tokens(kv.block_size()), kv.block_size(), 4);
        black_box(throttle.plan(&view))
    });
    report("scheduler_overhead/token_throttle_view_plus_plan", throttle_plan);
    let sarathi_plan = per_iteration(|| {
        let view = pool.view(kv.free_rate(), kv.free_blocks().to_tokens(kv.block_size()), kv.block_size(), 4);
        black_box(sarathi.plan(&view))
    });
    report("scheduler_overhead/sarathi_view_plus_plan", sarathi_plan);
    // One whole audited step, as `sim_sweep` runs it, at the depth of its
    // overloaded points: ~110 decoding and 2 000 waiting sequences, in
    // the steady state of a closed loop (below).
    let mut overloaded = Overloaded::warm(&throttle);
    let full_step = per_iteration(|| overloaded.step(&throttle));
    report("scheduler_overhead/token_throttle_full_step_2000_waiting", full_step);
}

/// A closed loop at `sim_sweep`'s overloaded depth, driven through an
/// audited `SchedulerStep` (depth 4): 1024-token prompts with 128 output
/// tokens each, 2 110 of them live, a KV cache that holds about 110 in
/// decode, and a new arrival for every one that finishes, so about 2 000
/// always wait. Timing steps of a loop that has run for a while measures
/// the step in the warm, long-lived state the simulator's steps run in; a
/// freshly copied state would instead time cold caches and the
/// allocator's first touches of the copy.
struct Overloaded {
    step: SchedulerStep,
    rec: MetricsRecorder,
    next_id: u64,
}

impl Overloaded {
    const LIVE: usize = 2_110;
    const PROMPT: usize = 1024;
    const OUTPUT: usize = 128;

    /// The loop after 20 000 warm-up steps of `policy`.
    fn warm(policy: &dyn SchedulePolicy) -> Self {
        let kv = KvCacheManager::new(Blocks(8_192), Tokens(16));
        let mut lp = Self {
            step: SchedulerStep::new(RequestPool::new(1024), kv, 4, true, false),
            rec: MetricsRecorder::new(),
            next_id: 0,
        };
        for _ in 0..Self::LIVE {
            lp.arrive();
        }
        for _ in 0..20_000 {
            lp.step(policy);
        }
        lp
    }

    fn arrive(&mut self) {
        let handle = self.rec.on_arrival(self.next_id, 0.0, Self::PROMPT);
        assert!(self.step.arrive(self.next_id, Self::PROMPT, Self::OUTPUT, handle), "a request fits");
        self.next_id += 1;
    }

    /// Propose, schedule and complete one batch; replace what finished.
    fn step(&mut self, policy: &dyn SchedulePolicy) {
        let proposal = self.step.propose(policy);
        let scheduled = self.step.schedule(proposal, &mut self.rec, 0.0, |_, _, _, _| Ok::<_, Infallible>(()));
        let Scheduled::Batch { id, .. } = scheduled else { return };
        let finished = self.step.complete(0.0, id).map_or(0, |o| o.finished.len());
        for _ in 0..finished {
            self.arrive();
        }
    }
}

fn bench_kvcache() {
    let cycle = per_iteration_batched(
        || KvCacheManager::new(Blocks(4096), Tokens(16)),
        |mut kv| {
            let seqs = || (0..32u32).map(|i| (SeqSlot::new(i), u64::from(i)));
            for (slot, id) in seqs() {
                kv.append(slot, id, Tokens(200)).expect("fits");
            }
            for (slot, id) in seqs() {
                for _ in 0..16 {
                    kv.append(slot, id, Tokens(1)).expect("fits");
                }
            }
            for (slot, id) in seqs() {
                kv.free(slot, id).expect("live");
            }
            black_box(kv.free_rate())
        },
    );
    report("kvcache/append_extend_free_cycle", cycle);
}

fn bench_transformer() {
    // One decode step at a fixed context length: every iteration forks the
    // cached `context`-token sequence (a multiple of the block size, so
    // every block is shared) and runs its next token at position
    // `context`, exactly the work of `decode_step`, then releases the fork.
    // The context never grows, so each window times the same step.
    let mut lm = CausalLM::new(ModelConfig::tiny(), 1, 256, 16, 7);
    for context in [128usize, 1024, 3072] {
        let text: Vec<u32> = (0..=context).map(|i| (i * 7 % 256) as u32).collect();
        lm.prefill(1, &text[..context], 512).expect("prefill");
        let decode = per_iteration(|| {
            let logits = lm.prefill_shared(1, 2, &text, 1).expect("capacity");
            lm.release(2).expect("live");
            black_box(logits[0])
        });
        report(&format!("transformer/tiny_decode_step_ctx{context}"), decode);
        lm.release(1).expect("live");
    }

    let prompt: Vec<u32> = (0..64).map(|i| (i % 256) as u32).collect();
    let mut id = 0u64;
    let mut lm = CausalLM::new(ModelConfig::tiny(), 1, 8192, 16, 7);
    let prefill = per_iteration(|| {
        id += 1;
        let l = lm.prefill(id, &prompt, 1024).expect("capacity");
        lm.release(id).expect("live");
        black_box(l[0])
    });
    report("transformer/tiny_prefill_64_tokens", prefill);
}

fn bench_simulator() {
    let deployment = Deployment::new(ModelConfig::qwen2_5_32b(), ClusterSpec::intra_node_l20(4));
    let trace = Trace::paper_online(Dataset::ShareGpt, 2.0, 3);
    let cfg = EngineConfig {
        record_token_trace: false,
        record_utilization: false,
        ..EngineConfig::default()
    };
    let run = per_iteration(|| black_box(run_experiment(&trace, &SystemConfig::gllm(), &deployment, &cfg)));
    report("simulator/serving_experiment_2rps_128s", run);
}

/// A closed loop of 16 requests (64-token prompt, 8 output tokens, one
/// micro-batch in flight) driven through the auditor alone, with the
/// events and KV observations a faithful scheduling step would report.
#[derive(Clone)]
struct AuditLoop {
    audit: InvariantAuditor,
    /// `(seq, slot, context, decoded)` of the open requests.
    live: Vec<(u64, SeqSlot, Tokens, usize)>,
    /// Slots of finished requests, reused as a request pool does.
    free_slots: Vec<SeqSlot>,
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
            free_slots: (0..16).rev().map(SeqSlot::new).collect(),
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
            while let Some(slot) = self.free_slots.pop() {
                self.audit.on_arrival(self.next_seq);
                self.live.push((self.next_seq, slot, Tokens::ZERO, 0));
                self.next_seq += 1;
            }
            let mut plan = BatchPlan::default();
            for &(seq, slot, context_before, _) in &self.live {
                if context_before.is_zero() {
                    plan.prefill.push(PrefillChunk {
                        seq,
                        slot,
                        tokens: Tokens(64),
                        context_before,
                        completes_prompt: true,
                    });
                } else {
                    plan.decode.push(DecodeSlot { seq, slot, context_before });
                }
            }
            let before = self.obs();
            for (_, _, ctx, decoded) in &mut self.live {
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
            let (used, free_slots) = (&mut self.used, &mut self.free_slots);
            self.live.retain(|&(seq, slot, ctx, decoded)| {
                let done = decoded == 8;
                if done {
                    *used -= ctx.to_blocks(Self::BLOCK);
                    finished.push((seq, slot));
                    free_slots.push(slot);
                }
                !done
            });
            self.completed += finished.len() as u64;
            self.audit.on_complete(t, self.batch, &finished, self.obs());
            self.batch += 1;
        }
    }
}

fn bench_auditor() {
    // Each iteration audits 100 more requests on a copy of a loop that
    // has already completed `history`; divide by 100 for per request. The
    // used copy is parked and dropped in the next (untimed) setup, so
    // freeing the history stays out of the measurement.
    for (name, history) in [("100_requests_after_1k", 1_000), ("100_requests_after_8k", 8_000)] {
        let mut warm = AuditLoop::new();
        warm.run(history);
        assert!(warm.audit.is_clean(), "{:?}", warm.audit.violations());
        let parked = RefCell::new(None);
        let audited = per_iteration_batched(
            || {
                parked.borrow_mut().take();
                warm.clone()
            },
            |mut lp| {
                lp.run(100);
                black_box(lp.audit.is_clean());
                *parked.borrow_mut() = Some(lp);
            },
        );
        report(&format!("auditor_closed_loop_history/{name}"), audited);
    }
}

fn main() {
    bench_scheduler();
    bench_kvcache();
    bench_transformer();
    bench_simulator();
    bench_auditor();
}
