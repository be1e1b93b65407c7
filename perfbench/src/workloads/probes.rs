//! Direct timings of single layers on a workload's own inputs, made after
//! the traced pass: the transformer's prefill and decode steps, and the
//! HTTP edge's request parsing and tokenization.

use std::time::Instant;

use gllm_frontend::openai::CompletionRequest;
use gllm_frontend::Tokenizer;
use gllm_model::ModelConfig;
use gllm_transformer::{sampler::argmax, BatchChunk, CausalLM};

use super::serve::{STAGES, WEIGHT_SEED};
use super::Layers;
use crate::stats::median;
use crate::trace::Tracer;

/// Sequences per decode step: `serve_chat`'s mean decode batch (decode
/// slots per non-empty plan, 6.4 in a traced run; 16 open requests share
/// a 2-stage pipeline with the prefills).
const DECODE_BATCH: usize = 6;
/// Decode steps timed per repetition.
const DECODE_STEPS: usize = 32;
/// Prompts prefilled per repetition.
const PREFILL_PROMPTS: usize = 16;
/// Repetitions; each metric is the median.
const REPEATS: usize = 5;

/// `transformer.prefill_us_per_tok` (one `CausalLM::prefill` per prompt,
/// whole prompt as one chunk) and `transformer.decode_us_per_seq` (one
/// `forward_batch` of [`DECODE_BATCH`] decode chunks per step), on the
/// tiny model with the runtime's weight seed.
pub fn transformer(l: &mut Layers, prompts: &[&[u32]], tracer: Option<&Tracer>) {
    let prompts: Vec<&[u32]> = prompts.iter().copied().filter(|p| !p.is_empty()).collect();
    if prompts.is_empty() {
        return;
    }
    let mut lm = CausalLM::new(ModelConfig::tiny(), STAGES, 8192, 4, WEIGHT_SEED);
    let mut next_seq = 0u64;
    let mut prefill = Vec::new();
    let mut decode = Vec::new();
    for _ in 0..REPEATS {
        // Prefill.
        let start = Instant::now();
        let mut tokens = 0;
        for p in prompts.iter().take(PREFILL_PROMPTS) {
            let _ = lm.prefill(next_seq, p, p.len());
            let _ = lm.release(next_seq);
            next_seq += 1;
            tokens += p.len();
        }
        if let Some(t) = tracer {
            t.record("transformer.prefill", start);
        }
        prefill.push(start.elapsed().as_secs_f64() * 1e6 / tokens.max(1) as f64);

        // Decode: prefill the batch untimed, then time the steps.
        let seqs: Vec<u64> = (0..DECODE_BATCH as u64).map(|i| next_seq + i).collect();
        next_seq += DECODE_BATCH as u64;
        let mut last: Vec<u32> = seqs
            .iter()
            .zip(prompts.iter().cycle())
            .map(|(&s, p)| {
                lm.prefill(s, p, p.len())
                    .map_or(0, |logits| argmax(&logits))
            })
            .collect();
        let start = Instant::now();
        for _ in 0..DECODE_STEPS {
            let chunks: Vec<BatchChunk> = seqs
                .iter()
                .zip(&last)
                .map(|(&seq, &tok)| BatchChunk {
                    seq,
                    start_pos: lm.kv().context_len(seq).get(),
                    tokens: vec![tok],
                    sample: true,
                })
                .collect();
            if let Ok(out) = lm.forward_batch(&chunks) {
                last = out.iter().map(|(_, logits)| argmax(logits)).collect();
            }
        }
        if let Some(t) = tracer {
            t.record("transformer.decode", start);
        }
        decode.push(start.elapsed().as_secs_f64() * 1e6 / (DECODE_STEPS * DECODE_BATCH) as f64);
        for s in seqs {
            let _ = lm.release(s);
        }
    }
    l.insert("transformer.prefill_us_per_tok", median(&prefill));
    l.insert("transformer.decode_us_per_seq", median(&decode));
}

/// `frontend.parse_us_mean` (`serde_json` into `CompletionRequest`) and
/// `frontend.encode_us_mean` (`Tokenizer::encode`) over the workload's
/// request bodies.
pub fn frontend(l: &mut Layers, bodies: &[Vec<u8>], tracer: Option<&Tracer>) {
    const ROUNDS: usize = 200;
    if bodies.is_empty() {
        return;
    }
    let tok = Tokenizer::byte_level(ModelConfig::tiny().vocab_size);
    let mut parsed: Vec<CompletionRequest> = Vec::with_capacity(bodies.len());
    let start = Instant::now();
    for _ in 0..ROUNDS {
        parsed.clear();
        parsed.extend(bodies.iter().filter_map(|b| serde_json::from_slice(b).ok()));
    }
    if let Some(t) = tracer {
        t.record("frontend.parse", start);
    }
    let n = (ROUNDS * bodies.len()) as f64;
    l.insert(
        "frontend.parse_us_mean",
        start.elapsed().as_secs_f64() * 1e6 / n,
    );
    let start = Instant::now();
    let mut total = 0usize;
    for _ in 0..ROUNDS {
        total += parsed
            .iter()
            .map(|p| tok.encode(&p.prompt).len())
            .sum::<usize>();
    }
    if let Some(t) = tracer {
        t.record("frontend.encode", start);
    }
    std::hint::black_box(total);
    l.insert(
        "frontend.encode_us_mean",
        start.elapsed().as_secs_f64() * 1e6 / n,
    );
}
