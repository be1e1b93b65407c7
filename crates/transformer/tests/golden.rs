//! Golden outputs of the tiny model.
//!
//! The other equivalence tests compare the model with itself (chunked vs
//! whole prefill, batched vs solo, pipelined vs single stage), so a change
//! to any kernel's accumulation order would pass them all. These tests pin
//! the exact bits instead: every greedy token and the `to_bits` of every
//! logit are folded into an FNV-1a digest and compared with a constant.
//! A kernel change that is meant to be bit-identical must leave these
//! constants alone.

use gllm_model::ModelConfig;
use gllm_transformer::sampler::argmax;
use gllm_transformer::{BatchChunk, CausalLM};

/// Digest of [`streams_digest`] for weight seed 2024 (any stage count).
const STREAMS_SEED_2024: u64 = 0x265b_0549_4f84_db54;
/// Digest of [`streams_digest`] for weight seed 7 (any stage count).
const STREAMS_SEED_7: u64 = 0x8505_7f7c_8226_23b1;
/// Digest of [`decode_batch_digest`].
const DECODE_BATCH: u64 = 0x1c7d_938d_d8c5_1fec;

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn logits(&mut self, logits: &[f32]) {
        self.word(logits.len() as u64);
        for v in logits {
            self.word(u64::from(v.to_bits()));
        }
    }
}

/// A deterministic pseudo-random prompt of `len` tokens from the tiny
/// model's 256-token vocabulary.
fn prompt(salt: u64, len: usize) -> Vec<u32> {
    let mut z = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            z ^= z << 13;
            z ^= z >> 7;
            z ^= z << 17;
            (z % 256) as u32
        })
        .collect()
}

/// Whole prefill, chunked prefill and a greedy stream after each, on a
/// model of `stages` stages: every logit and token is digested.
fn streams_digest(seed: u64, stages: usize) -> u64 {
    let mut lm = CausalLM::new(ModelConfig::tiny(), stages, 256, 4, seed);
    let mut h = Fnv::new();
    for (seq, chunk) in [(1u64, 1024usize), (2, 5), (3, 1)] {
        let p = prompt(seq, 23 + 7 * seq as usize);
        let mut logits = lm.prefill(seq, &p, chunk).expect("capacity");
        h.logits(&logits);
        for _ in 0..16 {
            let tok = argmax(&logits);
            h.word(u64::from(tok));
            logits = lm.decode_step(seq, tok).expect("capacity");
            h.logits(&logits);
        }
    }
    h.0
}

/// Six sequences at context lengths 54..=120 decoded together for 12
/// steps on 2 stages; the first step also carries a 9-token prefill chunk
/// of a seventh sequence.
fn decode_batch_digest() -> u64 {
    let mut lm = CausalLM::new(ModelConfig::tiny(), 2, 512, 4, 2024);
    let mut h = Fnv::new();
    let seqs: Vec<u64> = (0..6).collect();
    let mut last: Vec<u32> = seqs
        .iter()
        .map(|&s| {
            let p = prompt(100 + s, 54 + 13 * s as usize);
            argmax(&lm.prefill(s, &p, 32).expect("capacity"))
        })
        .collect();
    let extra = prompt(200, 9);
    for step in 0..12 {
        let mut chunks: Vec<BatchChunk> = seqs
            .iter()
            .zip(&last)
            .map(|(&seq, &tok)| BatchChunk {
                seq,
                start_pos: lm.kv().context_len(seq).get(),
                tokens: vec![tok],
                sample: true,
            })
            .collect();
        if step == 0 {
            chunks.insert(3, BatchChunk { seq: 6, start_pos: 0, tokens: extra.clone(), sample: true });
        }
        let out = lm.forward_batch(&chunks).expect("capacity");
        for (seq, logits) in &out {
            h.word(*seq);
            h.logits(logits);
        }
        last = out
            .iter()
            .filter(|(seq, _)| *seq != 6)
            .map(|(_, logits)| argmax(logits))
            .collect();
    }
    h.0
}

fn assert_streams(seed: u64, expected: u64) {
    for stages in [1, 2, 4] {
        let d = streams_digest(seed, stages);
        assert_eq!(d, expected, "seed {seed}, {stages} stage(s): {d:#018x}");
    }
}

#[test]
fn greedy_streams_and_logits_match_golden_digest_seed_2024() {
    assert_streams(2024, STREAMS_SEED_2024);
}

#[test]
fn greedy_streams_and_logits_match_golden_digest_seed_7() {
    assert_streams(7, STREAMS_SEED_7);
}

#[test]
fn decode_batch_matches_golden_digest() {
    let d = decode_batch_digest();
    assert_eq!(d, DECODE_BATCH, "decode batch: {d:#018x}");
}
