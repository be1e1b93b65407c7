//! Single-process causal language model: pipeline stages + KV manager in
//! one object.
//!
//! [`CausalLM`] is the convenience wrapper used by tests, examples and the
//! functionality study: it owns every [`StageModel`] of a (possibly
//! 1-stage) pipeline plus the `gllm-kvcache` manager, and exposes
//! prefill/decode/generate. It has no request pool, so it numbers its own
//! sequences: each id gets a [`SeqSlot`] (the KV manager's key) when its
//! first token is cached, and gives it back on release for the next id to
//! reuse. The threaded runtime (`gllm-runtime`) instead
//! distributes the same stages across worker threads — both paths execute
//! identical arithmetic, which is what the cross-plane equivalence tests
//! assert.

use std::collections::BTreeMap;
use std::ops::Deref;

use gllm_kvcache::{Blocks, KvCacheManager, KvError, SeqSlot, Tokens};
use gllm_model::{ModelConfig, PipelinePartition};

use crate::model::{BatchChunk, StageModel};
use crate::sampler::{sample, SamplingParams};

/// A complete causal LM over `stages` pipeline stages.
pub struct CausalLM {
    cfg: ModelConfig,
    stages: Vec<StageModel>,
    kvm: KvCacheManager,
    /// The slot of every sequence that holds a page table.
    slots: BTreeMap<u64, SeqSlot>,
    /// Released slots, reused last-released first.
    free_slots: Vec<SeqSlot>,
}

/// The KV manager as [`CausalLM`]'s callers see it: every
/// [`KvCacheManager`] query, plus per-sequence ones by id.
#[derive(Clone, Copy)]
pub struct LmKv<'a> {
    kvm: &'a KvCacheManager,
    slots: &'a BTreeMap<u64, SeqSlot>,
}

impl LmKv<'_> {
    /// Tokens cached for `seq` (0 when unknown).
    pub fn context_len(&self, seq: u64) -> Tokens {
        self.slots.get(&seq).map_or(Tokens::ZERO, |&slot| self.kvm.context_len(slot, seq))
    }
}

impl Deref for LmKv<'_> {
    type Target = KvCacheManager;

    fn deref(&self) -> &KvCacheManager {
        self.kvm
    }
}

impl CausalLM {
    /// Build a model partitioned into `num_stages` stages with KV capacity
    /// `kv_blocks × block_size` tokens. Weights derive from `seed`
    /// (partition-independent).
    pub fn new(
        cfg: ModelConfig,
        num_stages: usize,
        kv_blocks: usize,
        block_size: usize,
        seed: u64,
    ) -> Self {
        let kv_slots = kv_blocks * block_size;
        let stages = PipelinePartition::even(cfg.num_layers, num_stages)
            .layer_ranges()
            .into_iter()
            .map(|range| StageModel::new(cfg.clone(), range, kv_slots, seed))
            .collect();
        Self {
            cfg: cfg.clone(),
            stages,
            kvm: KvCacheManager::new(Blocks(kv_blocks), Tokens(block_size)),
            slots: BTreeMap::new(),
            free_slots: Vec::new(),
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// The KV manager (inspect utilisation, page tables, contexts).
    pub fn kv(&self) -> LmKv<'_> {
        LmKv { kvm: &self.kvm, slots: &self.slots }
    }

    /// The slot of `seq`, numbering it with a free slot when it has none.
    fn slot_for(&mut self, seq: u64) -> SeqSlot {
        if let Some(&slot) = self.slots.get(&seq) {
            return slot;
        }
        let slot = self.free_slots.pop().unwrap_or_else(|| {
            SeqSlot::new(u32::try_from(self.slots.len()).expect("fewer than u32::MAX live sequences"))
        });
        self.slots.insert(seq, slot);
        slot
    }

    /// Give `seq`'s slot back unless it holds a page table (after a
    /// failed first append or fork).
    fn unnumber_if_empty(&mut self, seq: u64, slot: SeqSlot) {
        if !self.kvm.contains(slot, seq) && self.slots.remove(&seq).is_some() {
            self.free_slots.push(slot);
        }
    }

    /// Run one micro-batch of chunks through every stage. KV slots for the
    /// new tokens are allocated here; returns `(seq, logits)` for each
    /// chunk with `sample == true`.
    pub fn forward_batch(&mut self, chunks: &[BatchChunk]) -> Result<Vec<(u64, Vec<f32>)>, KvError> {
        let mut slots = Vec::with_capacity(chunks.len());
        for c in chunks {
            let slot = self.slot_for(c.seq);
            debug_assert_eq!(
                self.kvm.context_len(slot, c.seq).get(),
                c.start_pos,
                "gap in KV for {}",
                c.seq
            );
            if let Err(e) = self.kvm.append(slot, c.seq, Tokens(c.tokens.len())) {
                self.unnumber_if_empty(c.seq, slot);
                return Err(e);
            }
            slots.push(slot);
        }
        let tables: Vec<_> = chunks
            .iter()
            .zip(&slots)
            .map(|(c, &slot)| self.kvm.table(slot, c.seq).expect("just appended"))
            .collect();
        let mut hidden = self.stages[0].embed(chunks);
        for stage in self.stages.iter_mut() {
            stage.forward(chunks, &tables, &mut hidden);
        }
        Ok(self.stages.last().expect("nonempty").project(chunks, &hidden))
    }

    /// Prefill `prompt` for `seq` in chunks of `chunk_size`, returning the
    /// logits after the final token.
    pub fn prefill(
        &mut self,
        seq: u64,
        prompt: &[u32],
        chunk_size: usize,
    ) -> Result<Vec<f32>, KvError> {
        assert!(!prompt.is_empty() && chunk_size >= 1);
        let mut logits = None;
        let mut pos = 0;
        for chunk in prompt.chunks(chunk_size) {
            let last = pos + chunk.len() == prompt.len();
            let c = BatchChunk { seq, start_pos: pos, tokens: chunk.to_vec(), sample: last };
            let mut out = self.forward_batch(std::slice::from_ref(&c))?;
            if last {
                logits = Some(out.remove(0).1);
            }
            pos += chunk.len();
        }
        Ok(logits.expect("final chunk sampled"))
    }

    /// One decode step: feed `token` at the sequence's current position.
    pub fn decode_step(&mut self, seq: u64, token: u32) -> Result<Vec<f32>, KvError> {
        let pos = self.kv().context_len(seq).get();
        let c = BatchChunk { seq, start_pos: pos, tokens: vec![token], sample: true };
        let mut out = self.forward_batch(std::slice::from_ref(&c))?;
        Ok(out.remove(0).1)
    }

    /// Generate `max_new` tokens after `prompt` (chunked prefill of
    /// `chunk_size`), sampling with `params`. Returns the generated ids.
    pub fn generate(
        &mut self,
        seq: u64,
        prompt: &[u32],
        max_new: usize,
        chunk_size: usize,
        params: &SamplingParams,
    ) -> Result<Vec<u32>, KvError> {
        let mut logits = self.prefill(seq, prompt, chunk_size)?;
        let mut out = Vec::with_capacity(max_new);
        for step in 0..max_new {
            let tok = sample(&logits, params, seq, step);
            out.push(tok);
            if step + 1 == max_new {
                break;
            }
            logits = self.decode_step(seq, tok)?;
        }
        Ok(out)
    }

    /// Release a finished sequence's KV (and its slot).
    pub fn release(&mut self, seq: u64) -> Result<(), KvError> {
        let slot = self.slots.remove(&seq).ok_or(KvError::UnknownSequence(seq))?;
        self.free_slots.push(slot);
        self.kvm.free(slot, seq)
    }

    /// Prefill `child` whose prompt shares a prefix with the already-cached
    /// `parent` (prefix caching, §3.4): every *full* KV block of the common
    /// prefix is shared by reference, and only the remainder of the prompt
    /// is computed. Returns the logits after the final prompt token.
    ///
    /// The caller guarantees `prompt` starts with the parent's cached
    /// tokens up to the shared-block boundary; this is checked in debug
    /// builds by the caller owning the token text (the KV cache itself
    /// stores only projections).
    pub fn prefill_shared(
        &mut self,
        parent: u64,
        child: u64,
        prompt: &[u32],
        chunk_size: usize,
    ) -> Result<Vec<f32>, KvError> {
        let parent_slot = *self.slots.get(&parent).ok_or(KvError::UnknownSequence(parent))?;
        let child_slot = self.slot_for(child);
        let shared = match self.kvm.fork_prefix(parent_slot, parent, child_slot, child) {
            Ok(shared) => shared.get(),
            Err(e) => {
                self.unnumber_if_empty(child, child_slot);
                return Err(e);
            }
        };
        assert!(
            shared < prompt.len(),
            "prompt ({}) must extend past the shared prefix ({shared})",
            prompt.len()
        );
        let mut logits = None;
        let mut pos = shared;
        for chunk in prompt[shared..].chunks(chunk_size) {
            let last = pos + chunk.len() == prompt.len();
            let c = BatchChunk { seq: child, start_pos: pos, tokens: chunk.to_vec(), sample: last };
            let mut out = self.forward_batch(std::slice::from_ref(&c))?;
            if last {
                logits = Some(out.remove(0).1);
            }
            pos += chunk.len();
        }
        Ok(logits.expect("final chunk sampled"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lm(stages: usize) -> CausalLM {
        CausalLM::new(ModelConfig::tiny(), stages, 64, 4, 2024)
    }

    #[test]
    fn generation_is_deterministic_and_stage_count_invariant() {
        let prompt = vec![5u32, 9, 33, 120, 7];
        let mut a = lm(1);
        let mut b = lm(2);
        let mut c = lm(4);
        let ga = a.generate(1, &prompt, 12, 64, &SamplingParams::greedy()).unwrap();
        let gb = b.generate(1, &prompt, 12, 64, &SamplingParams::greedy()).unwrap();
        let gc = c.generate(1, &prompt, 12, 64, &SamplingParams::greedy()).unwrap();
        assert_eq!(ga, gb, "2-stage pipeline changed outputs");
        assert_eq!(ga, gc, "4-stage pipeline changed outputs");
        assert_eq!(ga.len(), 12);
    }

    #[test]
    fn chunk_size_does_not_change_generation() {
        let prompt: Vec<u32> = (0..17).map(|i| (i * 13) % 256).collect();
        let mut whole = lm(1);
        let mut chunked = lm(1);
        let gw = whole.generate(1, &prompt, 8, 1024, &SamplingParams::greedy()).unwrap();
        let gc = chunked.generate(1, &prompt, 8, 3, &SamplingParams::greedy()).unwrap();
        assert_eq!(gw, gc, "chunked prefill changed generation");
    }

    #[test]
    fn interleaved_sequences_do_not_interfere() {
        let p1 = vec![1u32, 2, 3];
        let p2 = vec![40u32, 50, 60, 70];
        // Interleaved in one model.
        let mut m = lm(2);
        let l1 = m.prefill(1, &p1, 2).unwrap();
        let l2 = m.prefill(2, &p2, 3).unwrap();
        let t1 = crate::sampler::argmax(&l1);
        let t2 = crate::sampler::argmax(&l2);
        let d1 = m.decode_step(1, t1).unwrap();
        let d2 = m.decode_step(2, t2).unwrap();
        // Isolated runs.
        let mut s1 = lm(2);
        let li1 = s1.prefill(1, &p1, 2).unwrap();
        let di1 = s1.decode_step(1, crate::sampler::argmax(&li1)).unwrap();
        let mut s2 = lm(2);
        let li2 = s2.prefill(2, &p2, 3).unwrap();
        let di2 = s2.decode_step(2, crate::sampler::argmax(&li2)).unwrap();
        assert_eq!(l1, li1);
        assert_eq!(l2, li2);
        assert_eq!(d1, di1);
        assert_eq!(d2, di2);
    }

    #[test]
    fn release_returns_kv() {
        let mut m = lm(1);
        m.prefill(7, &[1, 2, 3, 4, 5], 2).unwrap();
        assert!(m.kv().utilization() > 0.0);
        m.release(7).unwrap();
        assert_eq!(m.kv().utilization(), 0.0);
    }

    #[test]
    fn kv_exhaustion_reported_as_error() {
        let mut m = CausalLM::new(ModelConfig::tiny(), 1, 2, 4, 1);
        let err = m.prefill(1, &[0; 9], 9).unwrap_err();
        assert!(matches!(err, KvError::OutOfBlocks { .. }));
    }

    #[test]
    fn prefix_sharing_is_bitexact_and_saves_blocks() {
        let shared_prefix: Vec<u32> = (0..12).map(|i| (i * 17 + 3) % 256).collect();
        let mut prompt_a = shared_prefix.clone();
        prompt_a.extend([7, 8, 9]);
        let mut prompt_b = shared_prefix.clone();
        prompt_b.extend([100, 120]);

        // Independent prefills (no sharing).
        let mut solo = lm(2);
        let la = solo.prefill(1, &prompt_a, 64).unwrap();
        let used_without_sharing = {
            let mut fresh = lm(2);
            fresh.prefill(1, &prompt_a, 64).unwrap();
            fresh.prefill(2, &prompt_b, 64).unwrap();
            fresh.kv().stats().used_blocks
        };
        let lb_solo = {
            let mut fresh = lm(2);
            fresh.prefill(2, &prompt_b, 64).unwrap()
        };

        // Shared-prefix prefill of B after A.
        let mut shared = lm(2);
        let la_shared = shared.prefill(1, &prompt_a, 64).unwrap();
        let lb_shared = shared.prefill_shared(1, 2, &prompt_b, 64).unwrap();
        assert_eq!(la, la_shared);
        assert_eq!(lb_solo, lb_shared, "prefix sharing changed the logits");
        assert!(
            shared.kv().stats().used_blocks < used_without_sharing,
            "sharing should save blocks: {} vs {}",
            shared.kv().stats().used_blocks,
            used_without_sharing
        );
        // Freeing the parent keeps the child's shared prefix alive.
        shared.release(1).unwrap();
        let tok = crate::sampler::argmax(&lb_shared);
        let after = shared.decode_step(2, tok).unwrap();
        let mut solo2 = lm(2);
        let lb2 = solo2.prefill(2, &prompt_b, 64).unwrap();
        let after_solo = solo2.decode_step(2, crate::sampler::argmax(&lb2)).unwrap();
        assert_eq!(after, after_solo);
    }

    #[test]
    fn stochastic_sampling_is_reproducible() {
        let p = SamplingParams { temperature: 0.9, top_k: 40, top_p: 0.95, seed: 7 };
        let prompt = vec![3u32, 1, 4, 1, 5];
        let mut a = lm(1);
        let mut b = lm(1);
        assert_eq!(
            a.generate(1, &prompt, 10, 4, &p).unwrap(),
            b.generate(1, &prompt, 10, 4, &p).unwrap()
        );
    }
}
