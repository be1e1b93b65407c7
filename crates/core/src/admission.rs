//! KV admission: materialise a proposed plan against the cache.
//!
//! Policies propose token counts; the engine must make them physically
//! admissible (§3.1's constraints): every decode step needs one KV slot
//! (preempting the latest-arrival sequence when the cache is full, vLLM's
//! recompute-preemption), and prefill chunks are trimmed to the free space.
//! Both execution planes (the discrete-event simulator and the threaded
//! runtime) call this same function, so admission behaviour is identical.

use gllm_kvcache::{KvCacheManager, KvError};
use gllm_units::Tokens;

use crate::plan::{BatchPlan, PrefillChunk, SeqSlot};
use crate::pool::RequestPool;

/// Result of admitting a plan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Admission {
    /// The physically admissible plan (KV already allocated for it).
    pub plan: BatchPlan,
    /// Sequences evicted to make room, with their slots (recorded for
    /// metrics; their pool state is already reset to Waiting).
    pub preempted: Vec<(u64, SeqSlot)>,
}

/// Allocate KV for `proposed`, preempting and trimming as needed.
///
/// On return, every chunk/slot in `Admission::plan` has its KV slots
/// reserved, and the plan is ready for [`RequestPool::commit`].
pub fn admit(proposed: BatchPlan, pool: &mut RequestPool, kv: &mut KvCacheManager) -> Admission {
    let mut preempted = Vec::new();
    let mut decode = Vec::with_capacity(proposed.decode.len());
    // Sequences whose KV is already reserved in this admission must not be
    // evicted (their slots are committed); merely *proposed* sequences are
    // fair game — vLLM likewise sacrifices the lowest-priority running
    // sequence so higher-priority ones can proceed.
    let mut protected: Vec<u64> = Vec::with_capacity(proposed.decode.len() + 1);
    let mut pending: std::collections::VecDeque<_> = proposed.decode.into();
    while let Some(slot) = pending.pop_front() {
        loop {
            // Append directly, indexing the page tables by the plan's slot,
            // and treat the (rare) out-of-blocks error as the preemption
            // trigger. `append` is atomic, so a failure allocates nothing.
            match kv.append(slot.slot, slot.seq, Tokens(1)) {
                Ok(()) => {
                    protected.push(slot.seq);
                    decode.push(slot);
                    break;
                }
                // The slot's table belongs to another sequence: no eviction
                // can help, so the slot drops.
                Err(KvError::UnknownSequence(_)) => break,
                Err(KvError::OutOfBlocks { .. }) => {}
            }
            protected.push(slot.seq); // never self-evict for one's own slot
            let victim = pool.preempt_latest_excluding(&protected);
            protected.pop();
            match victim {
                Some((victim, victim_slot, _)) => {
                    // lint:allow(panic-freedom): preempt_latest_excluding only returns decoding victims that hold KV
                    kv.evict(victim_slot, victim).expect("victim held KV");
                    preempted.push((victim, victim_slot));
                    // The victim is Waiting now; any of its still-pending
                    // slots would be stale.
                    pending.retain(|s| s.seq != victim);
                }
                None => break, // drop the slot; the sequence waits
            }
        }
    }

    let mut prefill = Vec::with_capacity(proposed.prefill.len());
    for chunk in proposed.prefill {
        // `take` fits the free space, so only a foreign table in the slot
        // can refuse the append; the chunk then drops.
        let take = chunk.tokens.min(kv.max_appendable(chunk.slot, chunk.seq));
        if take.is_zero() || kv.append(chunk.slot, chunk.seq, take).is_err() {
            continue;
        }
        prefill.push(PrefillChunk {
            tokens: take,
            completes_prompt: chunk.completes_prompt && take == chunk.tokens,
            ..chunk
        });
    }

    Admission { plan: BatchPlan { prefill, decode }, preempted }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::DecodeSlot;

    fn decoding_pool(ids: &[u64], prompt: usize, kv: &mut KvCacheManager) -> RequestPool {
        let mut pool = RequestPool::new(1024);
        for &id in ids {
            let slot = pool.add(id, prompt, 50);
            let plan = BatchPlan {
                prefill: vec![PrefillChunk {
                    seq: id,
                    slot,
                    tokens: Tokens(prompt),
                    context_before: Tokens(0),
                    completes_prompt: true,
                }],
                decode: vec![],
            };
            let adm = admit(plan, &mut pool, kv);
            pool.commit(&adm.plan);
            pool.complete(&adm.plan);
        }
        pool
    }

    fn victims(adm: &Admission) -> Vec<u64> {
        adm.preempted.iter().map(|&(seq, _)| seq).collect()
    }

    /// Whether `seq` holds KV in the slot `pool` gave it.
    fn holds_kv(kv: &KvCacheManager, pool: &RequestPool, seq: u64) -> bool {
        pool.slot(seq).is_some_and(|slot| kv.contains(slot, seq))
    }

    fn decode(pool: &RequestPool, seq: u64) -> DecodeSlot {
        DecodeSlot { seq, slot: pool.slot(seq).expect("live"), context_before: Tokens(16) }
    }

    #[test]
    fn admits_what_fits_without_preemption() {
        let mut kv = KvCacheManager::new(gllm_kvcache::Blocks(64), Tokens(16));
        let mut pool = decoding_pool(&[1, 2], 16, &mut kv);
        let plan = BatchPlan {
            prefill: vec![],
            decode: vec![
                decode(&pool, 1),
                decode(&pool, 2),
            ],
        };
        let adm = admit(plan, &mut pool, &mut kv);
        assert_eq!(adm.plan.decode.len(), 2);
        assert!(adm.preempted.is_empty());
    }

    #[test]
    fn full_cache_preempts_latest_nonplanned_sequence() {
        // 3 sequences of 16 tokens fill 3 blocks; only seq 1's decode is
        // planned, so seq 3 (latest) should be evicted to make room.
        let mut kv = KvCacheManager::new(gllm_kvcache::Blocks(3), Tokens(16));
        let mut pool = decoding_pool(&[1, 2, 3], 16, &mut kv);
        let plan = BatchPlan {
            prefill: vec![],
            decode: vec![decode(&pool, 1)],
        };
        let adm = admit(plan, &mut pool, &mut kv);
        assert_eq!(adm.plan.decode.len(), 1);
        assert_eq!(victims(&adm), vec![3]);
        assert!(!holds_kv(&kv, &pool, 3));
    }

    #[test]
    fn proposed_but_unplaced_sequences_may_be_sacrificed() {
        // Cache completely full with the two planned sequences themselves:
        // the earlier (higher-priority) one proceeds by evicting the later
        // one, exactly vLLM's recompute-preemption — no deadlock.
        let mut kv = KvCacheManager::new(gllm_kvcache::Blocks(2), Tokens(16));
        let mut pool = decoding_pool(&[1, 2], 16, &mut kv);
        let plan = BatchPlan {
            prefill: vec![],
            decode: vec![
                decode(&pool, 1),
                decode(&pool, 2),
            ],
        };
        let adm = admit(plan, &mut pool, &mut kv);
        assert_eq!(victims(&adm), vec![2]);
        assert_eq!(adm.plan.decode.len(), 1);
        assert_eq!(adm.plan.decode[0].seq, 1);
        assert!(!holds_kv(&kv, &pool, 2), "victim's KV was released");
    }

    #[test]
    fn placed_sequences_are_never_evicted_and_self_eviction_is_impossible() {
        // Three sequences fill the cache; planning all three lets seq 1
        // evict seq 3, seq 2 then finds no victim (1 placed, itself
        // excluded) and its slot drops — but nothing already placed is
        // ever clawed back.
        let mut kv = KvCacheManager::new(gllm_kvcache::Blocks(3), Tokens(16));
        let mut pool = decoding_pool(&[1, 2, 3], 16, &mut kv);
        let plan = BatchPlan {
            prefill: vec![],
            decode: vec![
                decode(&pool, 1),
                decode(&pool, 2),
                decode(&pool, 3),
            ],
        };
        let adm = admit(plan, &mut pool, &mut kv);
        assert_eq!(victims(&adm), vec![3]);
        assert_eq!(adm.plan.decode.len(), 1);
        assert_eq!(adm.plan.decode[0].seq, 1);
        assert!(holds_kv(&kv, &pool, 1) && holds_kv(&kv, &pool, 2));
    }

    #[test]
    fn a_slot_holding_another_sequences_table_drops_without_preempting() {
        // Seq 2's decode names seq 1's slot: the KV manager refuses it, and
        // no eviction could help, so nothing is evicted and only seq 1's
        // own slot is placed.
        let mut kv = KvCacheManager::new(gllm_kvcache::Blocks(3), Tokens(16));
        let mut pool = decoding_pool(&[1, 2], 16, &mut kv);
        let stray = DecodeSlot { slot: pool.slot(1).expect("live"), ..decode(&pool, 2) };
        let plan = BatchPlan { prefill: vec![], decode: vec![stray, decode(&pool, 1)] };
        let adm = admit(plan, &mut pool, &mut kv);
        assert!(adm.preempted.is_empty());
        assert_eq!(adm.plan.decode.iter().map(|d| d.seq).collect::<Vec<_>>(), vec![1]);
        assert!(holds_kv(&kv, &pool, 2), "the stray slot cost seq 2 nothing");
    }

    #[test]
    fn prefill_chunks_trim_to_free_space() {
        let mut kv = KvCacheManager::new(gllm_kvcache::Blocks(4), Tokens(16));
        let mut pool = RequestPool::new(1024);
        let slot = pool.add(1, 100, 5);
        let plan = BatchPlan {
            prefill: vec![PrefillChunk {
                seq: 1,
                slot,
                tokens: Tokens(100),
                context_before: Tokens(0),
                completes_prompt: true,
            }],
            decode: vec![],
        };
        let adm = admit(plan, &mut pool, &mut kv);
        assert_eq!(adm.plan.prefill.len(), 1);
        assert_eq!(adm.plan.prefill[0].tokens, Tokens(64));
        assert!(!adm.plan.prefill[0].completes_prompt, "trim must clear the flag");
    }

    #[test]
    fn zero_space_drops_prefill_entirely() {
        let mut kv = KvCacheManager::new(gllm_kvcache::Blocks(1), Tokens(16));
        let mut pool = RequestPool::new(1024);
        let s1 = pool.add(1, 16, 5);
        let s2 = pool.add(2, 16, 5);
        let p1 = BatchPlan {
            prefill: vec![PrefillChunk { seq: 1, slot: s1, tokens: Tokens(16), context_before: Tokens(0), completes_prompt: true }],
            decode: vec![],
        };
        let adm1 = admit(p1, &mut pool, &mut kv);
        pool.commit(&adm1.plan);
        let p2 = BatchPlan {
            prefill: vec![PrefillChunk { seq: 2, slot: s2, tokens: Tokens(16), context_before: Tokens(0), completes_prompt: true }],
            decode: vec![],
        };
        let adm2 = admit(p2, &mut pool, &mut kv);
        assert!(adm2.plan.is_empty());
    }
}
