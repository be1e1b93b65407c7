//! One pipeline stage of the transformer.
//!
//! A [`StageModel`] owns a contiguous range of decoder layers (plus the
//! embedding table on the first stage and the final-norm/LM-head on the
//! last), and the paged KV storage for exactly those layers — mirroring how
//! the paper's workers each hold their stage's weights and KV while sharing
//! the driver's unified page tables.
//!
//! `forward` processes a micro-batch of [`BatchChunk`]s (prefill chunks
//! and/or decode steps) layer by layer. The new tokens of every chunk are
//! stacked into one matrix, so each projection and MLP matrix runs as one
//! [`Packed::matmul`] over the whole micro-batch; attention stays per
//! sequence. What depends only on positions — each chunk's page-table
//! slots and each token's RoPE angles — is resolved once per call and
//! reused by every layer and head. Every output element keeps its own
//! fixed accumulation order, so batching, chunking and partitioning cannot
//! change results.

use std::ops::Range;

use gllm_kvcache::PageTable;
use gllm_model::ModelConfig;

use crate::kernels::{add_assign, rmsnorm, rope, rope_angles, silu, softmax, Packed};
use crate::kvstore::PagedKvStore;
use crate::weights::{
    gen_embedding, gen_final_norm, gen_layer, gen_lm_head, LayerWeights,
};

/// RMSNorm epsilon (Llama/Qwen convention).
const NORM_EPS: f32 = 1e-5;

/// One sequence's slice of a micro-batch.
#[derive(Debug, Clone)]
pub struct BatchChunk {
    /// Sequence id (for diagnostics; the page table is passed alongside).
    pub seq: u64,
    /// Global position of the first new token.
    pub start_pos: usize,
    /// New token ids (1 for a decode step, the chunk for a prefill).
    pub tokens: Vec<u32>,
    /// Whether to produce logits for the chunk's last token.
    pub sample: bool,
}

impl BatchChunk {
    /// Positions of the chunk's new tokens.
    fn positions(&self) -> Range<usize> {
        self.start_pos..self.start_pos + self.tokens.len()
    }
}

/// A contiguous range of decoder layers plus optional ends of the model.
pub struct StageModel {
    cfg: ModelConfig,
    layer_range: Range<usize>,
    layers: Vec<LayerWeights>,
    embedding: Option<Vec<f32>>,
    final_norm: Option<Vec<f32>>,
    lm_head: Option<Packed>,
    kv: PagedKvStore,
}

impl StageModel {
    /// Build the stage holding `layer_range` of `cfg`, with KV capacity
    /// `kv_slots` tokens. Weights derive from `seed` per absolute layer
    /// index, so any partitioning of the same `(cfg, seed)` pair is the
    /// same model. `is_first`/`is_last` attach the embedding / LM head.
    pub fn new(
        cfg: ModelConfig,
        layer_range: Range<usize>,
        kv_slots: usize,
        seed: u64,
        is_first: bool,
        is_last: bool,
    ) -> Self {
        assert!(layer_range.end <= cfg.num_layers);
        let layers = layer_range.clone().map(|l| gen_layer(&cfg, seed, l)).collect();
        Self {
            embedding: is_first.then(|| gen_embedding(&cfg, seed)),
            final_norm: is_last.then(|| gen_final_norm(&cfg, seed)),
            lm_head: is_last.then(|| gen_lm_head(&cfg, seed)),
            kv: PagedKvStore::new(layer_range.len(), kv_slots, cfg.kv_dim()),
            cfg,
            layer_range,
            layers,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// The absolute layer range this stage owns.
    pub fn layer_range(&self) -> Range<usize> {
        self.layer_range.clone()
    }

    /// Embed a micro-batch's token ids into hidden rows (first stage only).
    /// Returns one `tokens × hidden` buffer per chunk.
    pub fn embed(&self, chunks: &[BatchChunk]) -> Vec<Vec<f32>> {
        let table = self.embedding.as_ref().expect("embed on a non-first stage");
        let h = self.cfg.hidden_size;
        chunks
            .iter()
            .map(|c| {
                let mut rows = Vec::with_capacity(c.tokens.len() * h);
                for &tok in &c.tokens {
                    let tok = tok as usize;
                    assert!(tok < self.cfg.vocab_size, "token id {tok} out of vocab");
                    rows.extend_from_slice(&table[tok * h..(tok + 1) * h]);
                }
                rows
            })
            .collect()
    }

    /// Run this stage's decoder layers over the micro-batch, mutating the
    /// hidden rows in place. `tables[i]` is chunk `i`'s page table and must
    /// already cover `start_pos + tokens.len()` slots.
    pub fn forward(&mut self, chunks: &[BatchChunk], tables: &[&PageTable], hidden: &mut [Vec<f32>]) {
        assert_eq!(chunks.len(), tables.len());
        assert_eq!(chunks.len(), hidden.len());
        let cfg = &self.cfg;
        let (h, qd, kvd, hd) = (cfg.hidden_size, cfg.q_dim(), cfg.kv_dim(), cfg.head_dim);
        let n: usize = chunks.iter().map(|c| c.tokens.len()).sum();

        // Stack the micro-batch into one `n × hidden` matrix.
        let mut x = Vec::with_capacity(n * h);
        for (c, rows) in chunks.iter().zip(hidden.iter()) {
            assert_eq!(rows.len(), c.tokens.len() * h, "hidden rows do not match seq {}", c.seq);
            x.extend_from_slice(rows);
        }

        // Resolved once for every layer and head: each chunk's slots for
        // positions `0..start_pos + len`, and each token's RoPE angles.
        let slots: Vec<Vec<usize>> = chunks
            .iter()
            .zip(tables)
            .map(|(c, t)| (0..c.positions().end).map(|p| t.slot_of(p)).collect())
            .collect();
        let mut angles = vec![(0.0, 0.0); n * hd / 2];
        let positions = chunks.iter().flat_map(BatchChunk::positions);
        for (row, pos) in angles.chunks_exact_mut(hd / 2).zip(positions) {
            rope_angles(pos, row);
        }

        // Scratch for the whole call.
        let max_ctx = chunks.iter().map(|c| c.positions().end).max().unwrap_or(0);
        let mut scratch = AttnScratch {
            keys_t: vec![0.0; kvd * max_ctx],
            scores: vec![0.0; cfg.num_heads * max_ctx],
        };
        let mut normed = vec![0.0f32; n * h];
        let mut proj = vec![0.0f32; n * h];
        let mut q = vec![0.0f32; n * qd];
        let mut attn = vec![0.0f32; n * qd];
        let mut k = vec![0.0f32; n * kvd];
        let mut v = vec![0.0f32; n * kvd];
        let mut gate = vec![0.0f32; n * cfg.intermediate_size];
        let mut up = vec![0.0f32; n * cfg.intermediate_size];

        for (local, layer) in self.layers.iter().enumerate() {
            // Project every new token to Q/K/V and rotate Q and K.
            normed.copy_from_slice(&x);
            norm_rows(&mut normed, &layer.attn_norm);
            layer.wq.matmul(&normed, &mut q, n);
            layer.wk.matmul(&normed, &mut k, n);
            layer.wv.matmul(&normed, &mut v, n);
            let rows = q.chunks_exact_mut(qd).zip(k.chunks_exact_mut(kvd));
            for ((qrow, krow), row_angles) in rows.zip(angles.chunks_exact(hd / 2)) {
                for head in qrow.chunks_exact_mut(hd).chain(krow.chunks_exact_mut(hd)) {
                    rope(head, row_angles);
                }
            }

            // Write the new K/V into the paged store, then attend: each
            // token sees positions `0..=pos` of its own sequence.
            let new_slots = chunks.iter().zip(&slots).flat_map(|(c, s)| &s[c.start_pos..]);
            let new_kv = k.chunks_exact(kvd).zip(v.chunks_exact(kvd));
            for (&slot, (key, value)) in new_slots.zip(new_kv) {
                self.kv.write(local, slot, key, value);
            }
            let layer_kv = (self.kv.keys(local), self.kv.values(local));
            let (mut q_rest, mut out_rest) = (&q[..], &mut attn[..]);
            for (c, seq_slots) in chunks.iter().zip(&slots) {
                let (qc, q_tail) = q_rest.split_at(c.tokens.len() * qd);
                let (out, out_tail) = out_rest.split_at_mut(c.tokens.len() * qd);
                attend(cfg, layer_kv, seq_slots, c.start_pos, qc, out, &mut scratch);
                (q_rest, out_rest) = (q_tail, out_tail);
            }
            layer.wo.matmul(&attn, &mut proj, n);
            add_assign(&mut x, &proj);

            // SwiGLU MLP with pre-norm and residual.
            normed.copy_from_slice(&x);
            norm_rows(&mut normed, &layer.mlp_norm);
            layer.w_gate.matmul(&normed, &mut gate, n);
            layer.w_up.matmul(&normed, &mut up, n);
            for (g, u) in gate.iter_mut().zip(up.iter()) {
                *g = silu(*g) * u;
            }
            layer.w_down.matmul(&gate, &mut proj, n);
            add_assign(&mut x, &proj);
        }

        let mut rest = &x[..];
        for rows in hidden.iter_mut() {
            let (mine, tail) = rest.split_at(rows.len());
            rows.copy_from_slice(mine);
            rest = tail;
        }
    }

    /// Final norm + LM head for every chunk with `sample == true` (last
    /// stage only). Returns `(seq, logits)` in chunk order.
    pub fn project(&self, chunks: &[BatchChunk], hidden: &[Vec<f32>]) -> Vec<(u64, Vec<f32>)> {
        let norm = self.final_norm.as_ref().expect("project on a non-last stage");
        let head = self.lm_head.as_ref().expect("project on a non-last stage");
        let h = self.cfg.hidden_size;
        let sampled: Vec<(u64, &[f32])> = chunks
            .iter()
            .zip(hidden.iter())
            .filter(|(c, _)| c.sample)
            .map(|(c, hrows)| (c.seq, &hrows[(c.tokens.len() - 1) * h..c.tokens.len() * h]))
            .collect();
        let mut x = Vec::with_capacity(sampled.len() * h);
        for (_, last) in &sampled {
            x.extend_from_slice(last);
        }
        norm_rows(&mut x, norm);
        let mut logits = vec![0.0f32; sampled.len() * head.rows()];
        head.matmul(&x, &mut logits, sampled.len());
        sampled
            .iter()
            .zip(logits.chunks_exact(head.rows()))
            .map(|((seq, _), row)| (*seq, row.to_vec()))
            .collect()
    }
}

/// RMS-normalise every `gain.len()`-wide row of `x` by `gain`.
fn norm_rows(x: &mut [f32], gain: &[f32]) {
    for row in x.chunks_exact_mut(gain.len()) {
        rmsnorm(row, gain, NORM_EPS);
    }
}

/// Scratch buffers attention reuses across chunks and layers.
struct AttnScratch {
    /// A chunk's context keys, transposed: `[kv_dim × ctx]`.
    keys_t: Vec<f32>,
    /// One token's scores, `[num_heads × ctx]`.
    scores: Vec<f32>,
}

/// Grouped-query attention for one chunk in one layer. `slots` are the
/// sequence's slots for positions `0..first + tokens`, `q` and `out` the
/// chunk's `tokens × q_dim` rows; the token at position `pos` attends to
/// positions `0..=pos`. The context's keys are gathered once per chunk,
/// transposed so each head scores all positions in one pass per key
/// component. Each dot product, softmax and value sum keeps its reference
/// order: components ascending for the dot products, positions ascending
/// for the value sums, each from `0.0`.
fn attend(
    cfg: &ModelConfig,
    (keys, values): (&[f32], &[f32]),
    slots: &[usize],
    first: usize,
    q: &[f32],
    out: &mut [f32],
    scratch: &mut AttnScratch,
) {
    let (hd, kvd, qd) = (cfg.head_dim, cfg.kv_dim(), cfg.q_dim());
    let group = cfg.num_heads / cfg.num_kv_heads;
    let scale = 1.0 / (hd as f32).sqrt();
    let ctx = slots.len();
    let keys_t = &mut scratch.keys_t[..kvd * ctx];
    for (j, &slot) in slots.iter().enumerate() {
        for (e, &k) in keys[slot * kvd..(slot + 1) * kvd].iter().enumerate() {
            keys_t[e * ctx + j] = k;
        }
    }
    for ((pos, qrow), orow) in (first..).zip(q.chunks_exact(qd)).zip(out.chunks_exact_mut(qd)) {
        let n = pos + 1;
        let scores = &mut scratch.scores[..cfg.num_heads * n];
        for ((head, qh), s) in qrow.chunks_exact(hd).enumerate().zip(scores.chunks_exact_mut(n)) {
            let kvh = head / group;
            s.fill(0.0);
            for (d, &qv) in qh.iter().enumerate() {
                let kd = &keys_t[(kvh * hd + d) * ctx..][..n];
                for (s, &k) in s.iter_mut().zip(kd) {
                    *s += qv * k;
                }
            }
            for s in s.iter_mut() {
                *s *= scale;
            }
            softmax(s);
        }
        orow.fill(0.0);
        for (j, &slot) in slots[..n].iter().enumerate() {
            let val = &values[slot * kvd..(slot + 1) * kvd];
            for (head, oh) in orow.chunks_exact_mut(hd).enumerate() {
                let p = scores[head * n + j];
                let vh = &val[head / group * hd..(head / group + 1) * hd];
                for (o, &x) in oh.iter_mut().zip(vh.iter()) {
                    *o += p * x;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gllm_kvcache::{Blocks, KvCacheManager, SeqSlot, Tokens};

    /// The tests give sequence `seq` slot `seq`.
    fn slot(seq: u64) -> SeqSlot {
        SeqSlot::new(u32::try_from(seq).expect("small test ids"))
    }

    fn tiny_stage(kv_slots: usize) -> StageModel {
        let cfg = ModelConfig::tiny();
        StageModel::new(cfg.clone(), 0..cfg.num_layers, kv_slots, 7, true, true)
    }

    fn run_prompt(stage: &mut StageModel, kvm: &mut KvCacheManager, seq: u64, prompt: &[u32]) -> Vec<f32> {
        kvm.append(slot(seq), seq, Tokens(prompt.len())).unwrap();
        let chunk = BatchChunk { seq, start_pos: 0, tokens: prompt.to_vec(), sample: true };
        let table = kvm.table(slot(seq), seq).unwrap();
        let mut hidden = stage.embed(std::slice::from_ref(&chunk));
        // Cloning the table is fine: slots were assigned at append time.
        let t = table.clone();
        stage.forward(std::slice::from_ref(&chunk), &[&t], &mut hidden);
        stage.project(std::slice::from_ref(&chunk), &hidden).remove(0).1
    }

    #[test]
    fn forward_is_deterministic() {
        let mut kvm = KvCacheManager::new(Blocks(16), Tokens(4));
        let mut s1 = tiny_stage(64);
        let a = run_prompt(&mut s1, &mut kvm, 1, &[3, 5, 7]);
        let mut kvm2 = KvCacheManager::new(Blocks(16), Tokens(4));
        let mut s2 = tiny_stage(64);
        let b = run_prompt(&mut s2, &mut kvm2, 1, &[3, 5, 7]);
        assert_eq!(a, b);
    }

    #[test]
    fn different_prompts_give_different_logits() {
        let mut kvm = KvCacheManager::new(Blocks(32), Tokens(4));
        let mut s = tiny_stage(128);
        let a = run_prompt(&mut s, &mut kvm, 1, &[3, 5, 7]);
        let b = run_prompt(&mut s, &mut kvm, 2, &[3, 5, 8]);
        assert_ne!(a, b);
        assert!(a.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn chunked_prefill_matches_whole_prefill_bitexact() {
        let prompt: Vec<u32> = vec![9, 2, 250, 17, 4, 99, 31, 8];
        // Whole prefill.
        let mut kvm_a = KvCacheManager::new(Blocks(32), Tokens(4));
        let mut sa = tiny_stage(128);
        let whole = run_prompt(&mut sa, &mut kvm_a, 1, &prompt);
        // Chunked prefill: 3 + 5 tokens.
        let mut kvm_b = KvCacheManager::new(Blocks(32), Tokens(4));
        let mut sb = tiny_stage(128);
        kvm_b.append(slot(1), 1, Tokens(3)).unwrap();
        let c1 = BatchChunk { seq: 1, start_pos: 0, tokens: prompt[..3].to_vec(), sample: false };
        let t1 = kvm_b.table(slot(1), 1).unwrap().clone();
        let mut h1 = sb.embed(std::slice::from_ref(&c1));
        sb.forward(std::slice::from_ref(&c1), &[&t1], &mut h1);
        kvm_b.append(slot(1), 1, Tokens(5)).unwrap();
        let c2 = BatchChunk { seq: 1, start_pos: 3, tokens: prompt[3..].to_vec(), sample: true };
        let t2 = kvm_b.table(slot(1), 1).unwrap().clone();
        let mut h2 = sb.embed(std::slice::from_ref(&c2));
        sb.forward(std::slice::from_ref(&c2), &[&t2], &mut h2);
        let chunked = sb.project(std::slice::from_ref(&c2), &h2).remove(0).1;
        assert_eq!(whole, chunked, "chunking changed the logits");
    }

    #[test]
    fn batched_execution_matches_sequential_bitexact() {
        // Two sequences in one micro-batch vs two separate passes.
        let p1: Vec<u32> = vec![1, 2, 3, 4];
        let p2: Vec<u32> = vec![200, 100, 50];
        let mut kvm = KvCacheManager::new(Blocks(64), Tokens(4));
        let mut s = tiny_stage(256);
        kvm.append(slot(1), 1, Tokens(p1.len())).unwrap();
        kvm.append(slot(2), 2, Tokens(p2.len())).unwrap();
        let chunks = vec![
            BatchChunk { seq: 1, start_pos: 0, tokens: p1.clone(), sample: true },
            BatchChunk { seq: 2, start_pos: 0, tokens: p2.clone(), sample: true },
        ];
        let t1 = kvm.table(slot(1), 1).unwrap().clone();
        let t2 = kvm.table(slot(2), 2).unwrap().clone();
        let mut hidden = s.embed(&chunks);
        s.forward(&chunks, &[&t1, &t2], &mut hidden);
        let batched = s.project(&chunks, &hidden);

        let mut kvm_a = KvCacheManager::new(Blocks(64), Tokens(4));
        let mut sa = tiny_stage(256);
        let solo1 = run_prompt(&mut sa, &mut kvm_a, 1, &p1);
        let mut kvm_b = KvCacheManager::new(Blocks(64), Tokens(4));
        let mut sb = tiny_stage(256);
        let solo2 = run_prompt(&mut sb, &mut kvm_b, 2, &p2);

        assert_eq!(batched[0].1, solo1);
        assert_eq!(batched[1].1, solo2);
    }

    #[test]
    fn pipelined_stages_match_single_stage_bitexact() {
        let cfg = ModelConfig::tiny();
        let prompt: Vec<u32> = vec![11, 22, 33, 44, 55];
        // Single stage.
        let mut kvm = KvCacheManager::new(Blocks(32), Tokens(4));
        let mut whole = tiny_stage(128);
        let expected = run_prompt(&mut whole, &mut kvm, 1, &prompt);
        // Two stages: layers 0..2 and 2..4.
        let mut s0 = StageModel::new(cfg.clone(), 0..2, 128, 7, true, false);
        let mut s1 = StageModel::new(cfg.clone(), 2..4, 128, 7, false, true);
        let mut kvm2 = KvCacheManager::new(Blocks(32), Tokens(4));
        kvm2.append(slot(1), 1, Tokens(prompt.len())).unwrap();
        let chunk = BatchChunk { seq: 1, start_pos: 0, tokens: prompt.clone(), sample: true };
        let t = kvm2.table(slot(1), 1).unwrap().clone();
        let mut hidden = s0.embed(std::slice::from_ref(&chunk));
        s0.forward(std::slice::from_ref(&chunk), &[&t], &mut hidden);
        s1.forward(std::slice::from_ref(&chunk), &[&t], &mut hidden);
        let got = s1.project(std::slice::from_ref(&chunk), &hidden).remove(0).1;
        assert_eq!(expected, got, "pipelining changed the logits");
    }

    #[test]
    fn paged_noncontiguous_blocks_do_not_change_results() {
        // Fragment the allocator so sequence 2's blocks are non-adjacent,
        // then check logits match a fresh contiguous run.
        let prompt: Vec<u32> = vec![7, 8, 9, 10, 11, 12];
        let mut kvm = KvCacheManager::new(Blocks(16), Tokens(2));
        let mut s = tiny_stage(32);
        kvm.append(slot(10), 10, Tokens(2)).unwrap(); // occupy block 0
        kvm.append(slot(11), 11, Tokens(2)).unwrap(); // occupy block 1
        kvm.free(slot(10), 10).unwrap(); // hole at block 0
        kvm.append(slot(2), 2, Tokens(prompt.len())).unwrap(); // spans hole + tail blocks
        let chunk = BatchChunk { seq: 2, start_pos: 0, tokens: prompt.clone(), sample: true };
        let t = kvm.table(slot(2), 2).unwrap().clone();
        let mut hidden = s.embed(std::slice::from_ref(&chunk));
        s.forward(std::slice::from_ref(&chunk), &[&t], &mut hidden);
        let frag = s.project(std::slice::from_ref(&chunk), &hidden).remove(0).1;

        let mut kvm2 = KvCacheManager::new(Blocks(16), Tokens(2));
        let mut s2 = tiny_stage(32);
        let contiguous = run_prompt(&mut s2, &mut kvm2, 2, &prompt);
        assert_eq!(frag, contiguous, "paging layout leaked into results");
    }
}
