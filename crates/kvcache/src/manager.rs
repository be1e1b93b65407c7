//! Driver-side KV cache manager.
//!
//! In the paper's runtime the driver worker owns KV cache management and all
//! workers share its page tables (§3.3, Fig. 6 caption: "the KV cache usage
//! is consistent across all GPUs since they share unified page tables").
//! [`KvCacheManager`] is that component: it allocates blocks for prefill
//! chunks, extends sequences during decode, evicts sequences under pressure
//! (preemption with recomputation, §3.1.3), and exposes the `KV_free` signal
//! Token Throttling's UT rule consumes.
//!
//! Page tables live in a `Vec` indexed by the sequence's [`SeqSlot`], the
//! handle the request pool hands out and every plan carries, so the
//! scheduler's per-token KV work is an index, not a map probe. Each table
//! records the id that owns it; a call naming a slot with another id gets
//! [`KvError::UnknownSequence`], so a stale handle can never touch a reused
//! slot's table.
//!
//! All token/block quantities at this interface use the `gllm-units`
//! newtypes so token-vs-block confusion (PR 1's headline bug) cannot
//! recur silently.

use gllm_units::{Blocks, Tokens};
use serde::{Deserialize, Serialize};

use crate::allocator::{BlockAllocator, BlockId};
use crate::page_table::PageTable;

#[cfg(test)]
mod oracle;

/// Opaque sequence identifier (matches the request id in `gllm-core`).
pub type SeqId = u64;

/// A handle to a live sequence: the index of the slot that holds it in
/// its owner's slab (the request pool's, or `CausalLM`'s own numbering).
/// Plans carry it beside the id, and the KV manager keys page tables by
/// it. A slot is reused once its sequence leaves, so every use also names
/// the id and is checked against the slot's owner. The default handle
/// names slot 0; it serves plans that never reach a pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SeqSlot(u32);

impl SeqSlot {
    /// The handle of slot `index`.
    #[inline]
    pub const fn new(index: u32) -> Self {
        Self(index)
    }

    /// The slot's index.
    #[inline]
    pub const fn get(self) -> u32 {
        self.0
    }

    /// The slot's index, for slot-indexed tables.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// KV cache operation failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvError {
    /// Not enough free blocks to satisfy an allocation.
    OutOfBlocks {
        /// Blocks the operation needed.
        requested: Blocks,
        /// Blocks actually free.
        available: Blocks,
    },
    /// The sequence has no page table in the slot named for it (none at
    /// all, or the slot's table belongs to another sequence).
    UnknownSequence(SeqId),
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::OutOfBlocks { requested, available } => {
                write!(f, "out of KV blocks: need {requested}, have {available}")
            }
            KvError::UnknownSequence(id) => write!(f, "unknown sequence {id}"),
        }
    }
}

impl std::error::Error for KvError {}

/// Point-in-time snapshot of cache occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KvStats {
    /// Total physical blocks.
    pub total_blocks: Blocks,
    /// Free physical blocks.
    pub free_blocks: Blocks,
    /// Blocks with at least one owner.
    pub used_blocks: Blocks,
    /// Sequences with live page tables.
    pub num_sequences: usize,
    /// Cumulative evictions since construction.
    pub preemptions: u64,
}

/// A live page table and the sequence that owns it.
#[derive(Debug, Clone)]
struct Owned {
    seq: SeqId,
    table: PageTable,
}

/// The unified KV cache manager shared by every pipeline stage.
#[derive(Debug, Clone)]
pub struct KvCacheManager {
    block_size: Tokens,
    allocator: BlockAllocator,
    /// Page tables by slot; `None` marks a slot without one.
    tables: Vec<Option<Owned>>,
    /// Occupied entries of `tables`.
    live: usize,
    preemptions: u64,
}

impl KvCacheManager {
    /// A manager over `num_blocks` blocks of `block_size` tokens each.
    pub fn new(num_blocks: Blocks, block_size: Tokens) -> Self {
        assert!(!block_size.is_zero());
        Self {
            block_size,
            allocator: BlockAllocator::new(num_blocks),
            tables: Vec::new(),
            live: 0,
            preemptions: 0,
        }
    }

    /// A manager sized from a cluster's token capacity (as computed by
    /// `gllm_model::ClusterSpec`), rounding down to whole blocks.
    pub fn from_token_capacity(capacity_tokens: Tokens, block_size: Tokens) -> Self {
        let blocks = capacity_tokens.full_blocks(block_size).max(Blocks(1));
        Self::new(blocks, block_size)
    }

    /// Tokens per block.
    #[inline]
    pub fn block_size(&self) -> Tokens {
        self.block_size
    }

    /// Maximum tokens the cache can hold.
    pub fn token_capacity(&self) -> Tokens {
        self.allocator.num_total().to_tokens(self.block_size)
    }

    /// The paper's `KV_free ∈ [0, 1]`: fraction of blocks free.
    #[inline]
    pub fn free_rate(&self) -> f64 {
        self.allocator.free_rate()
    }

    /// Fraction of blocks in use (`1 − KV_free`).
    #[inline]
    pub fn utilization(&self) -> f64 {
        1.0 - self.free_rate()
    }

    /// Free blocks right now.
    pub fn free_blocks(&self) -> Blocks {
        self.allocator.num_free()
    }

    /// Whether `seq` has a live page table in `slot`.
    pub fn contains(&self, slot: SeqSlot, seq: SeqId) -> bool {
        self.table(slot, seq).is_some()
    }

    /// Tokens cached for `seq` in `slot` (0 when it has no table there).
    pub fn context_len(&self, slot: SeqSlot, seq: SeqId) -> Tokens {
        self.table(slot, seq).map_or(Tokens::ZERO, PageTable::num_tokens)
    }

    /// Borrow `seq`'s page table in `slot` (for slot lookup by the
    /// transformer); `None` when the slot holds no table of `seq`'s.
    pub fn table(&self, slot: SeqSlot, seq: SeqId) -> Option<&PageTable> {
        match self.tables.get(slot.index()) {
            Some(Some(o)) if o.seq == seq => Some(&o.table),
            _ => None,
        }
    }

    /// Blocks that appending `tokens` to `seq` in `slot` would allocate
    /// (a fresh table's count when it has none there).
    pub fn blocks_needed(&self, slot: SeqSlot, seq: SeqId, tokens: Tokens) -> Blocks {
        match self.table(slot, seq) {
            Some(t) => t.blocks_needed_for(tokens),
            None => tokens.to_blocks(self.block_size),
        }
    }

    /// Whether appending `tokens` to `seq` in `slot` would succeed right
    /// now.
    pub fn can_append(&self, slot: SeqSlot, seq: SeqId, tokens: Tokens) -> bool {
        !self.foreign(slot, seq) && self.blocks_needed(slot, seq, tokens) <= self.allocator.num_free()
    }

    /// Maximum tokens appendable to `seq` in `slot` right now: the slack
    /// in its last block plus every free block (the engine uses this to
    /// trim prefill chunks under KV pressure). Zero when the slot holds
    /// another sequence's table.
    pub fn max_appendable(&self, slot: SeqSlot, seq: SeqId) -> Tokens {
        if self.foreign(slot, seq) {
            return Tokens::ZERO;
        }
        let slack = self.table(slot, seq).map_or(Tokens::ZERO, PageTable::slack);
        slack + self.allocator.num_free().to_tokens(self.block_size)
    }

    /// Append `tokens` slots to `seq` in `slot`, allocating blocks as
    /// needed and creating the page table when the slot has none. Atomic:
    /// on failure nothing is allocated. A slot holding another sequence's
    /// table is [`KvError::UnknownSequence`].
    pub fn append(&mut self, slot: SeqSlot, seq: SeqId, tokens: Tokens) -> Result<(), KvError> {
        let entry = grown(&mut self.tables, slot);
        let needed = match entry {
            Some(o) if o.seq == seq => o.table.blocks_needed_for(tokens),
            Some(_) => return Err(KvError::UnknownSequence(seq)),
            None => tokens.to_blocks(self.block_size),
        };
        let available = self.allocator.num_free();
        let new_blocks = self
            .allocator
            .allocate_many(needed)
            .ok_or(KvError::OutOfBlocks { requested: needed, available })?;
        let owned = entry.get_or_insert_with(|| {
            self.live += 1;
            Owned { seq, table: PageTable::new(self.block_size) }
        });
        owned.table.push_blocks(new_blocks);
        owned.table.fill(tokens);
        Ok(())
    }

    /// Release every block `seq` owns in `slot` (normal completion).
    pub fn free(&mut self, slot: SeqSlot, seq: SeqId) -> Result<(), KvError> {
        let mut owned = match self.tables.get_mut(slot.index()) {
            Some(entry) if entry.as_ref().is_some_and(|o| o.seq == seq) => entry.take(),
            _ => None,
        }
        .ok_or(KvError::UnknownSequence(seq))?;
        self.live -= 1;
        for b in owned.table.take_blocks() {
            self.allocator.release(b);
        }
        Ok(())
    }

    /// Evict `seq` from `slot` under memory pressure, returning the number
    /// of cached tokens that must be recomputed when the sequence is
    /// rescheduled (the paper's "premature preemption … causes costly
    /// recomputation time", §3.1.3).
    pub fn evict(&mut self, slot: SeqSlot, seq: SeqId) -> Result<Tokens, KvError> {
        let lost = self.context_len(slot, seq);
        self.free(slot, seq)?;
        self.preemptions += 1;
        Ok(lost)
    }

    /// Share the whole-block prefix of `parent` with `child` (prefix
    /// caching): every *full* block of the parent is retained and becomes
    /// the start of the child's table in `child_slot`. Returns the number
    /// of tokens shared.
    ///
    /// `child_slot` must not hold a table.
    pub fn fork_prefix(
        &mut self,
        parent_slot: SeqSlot,
        parent: SeqId,
        child_slot: SeqSlot,
        child: SeqId,
    ) -> Result<Tokens, KvError> {
        let i = child_slot.index();
        assert!(
            !matches!(self.tables.get(i), Some(Some(_))),
            "slot {i} for child {child} already holds a table"
        );
        let parent_table = self.table(parent_slot, parent).ok_or(KvError::UnknownSequence(parent))?;
        let full_blocks = parent_table.num_tokens().full_blocks(self.block_size);
        let shared: Vec<BlockId> = parent_table.blocks().iter().take(full_blocks.get()).copied().collect();
        for &b in &shared {
            self.allocator.retain(b);
        }
        let mut table = PageTable::new(self.block_size);
        let tokens = full_blocks.to_tokens(self.block_size);
        table.push_blocks(shared);
        table.fill(tokens);
        *grown(&mut self.tables, child_slot) = Some(Owned { seq: child, table });
        self.live += 1;
        Ok(tokens)
    }

    /// Whether the last block of `seq` in `slot` is exclusively owned
    /// (safe to append into without copy-on-write).
    pub fn last_block_exclusive(&self, slot: SeqSlot, seq: SeqId) -> bool {
        self.table(slot, seq)
            .and_then(|t| t.blocks().last())
            .is_none_or(|&b| self.allocator.is_exclusive(b))
    }

    /// Cumulative evictions.
    pub fn preemption_count(&self) -> u64 {
        self.preemptions
    }

    /// Occupancy snapshot.
    pub fn stats(&self) -> KvStats {
        KvStats {
            total_blocks: self.allocator.num_total(),
            free_blocks: self.allocator.num_free(),
            used_blocks: self.allocator.num_used(),
            num_sequences: self.live,
            preemptions: self.preemptions,
        }
    }

    /// Every live sequence with its slot, in ascending id order (so a
    /// sweep over them is deterministic whatever the slot numbering).
    pub fn live_sequences(&self) -> Vec<(SeqId, SeqSlot)> {
        let mut live: Vec<(SeqId, SeqSlot)> = self
            .tables
            .iter()
            .zip(0u32..)
            .filter_map(|(entry, i)| entry.as_ref().map(|o| (o.seq, SeqSlot(i))))
            .collect();
        live.sort_unstable_by_key(|&(id, _)| id);
        live
    }

    /// Whether `slot` holds a table of a sequence other than `seq`.
    fn foreign(&self, slot: SeqSlot, seq: SeqId) -> bool {
        matches!(self.tables.get(slot.index()), Some(Some(o)) if o.seq != seq)
    }
}

/// The entry of `tables` for `slot`, growing the table to reach it.
fn grown(tables: &mut Vec<Option<Owned>>, slot: SeqSlot) -> &mut Option<Owned> {
    let i = slot.index();
    if i >= tables.len() {
        tables.resize_with(i + 1, || None);
    }
    &mut tables[i]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mgr(blocks: usize, block_size: usize) -> KvCacheManager {
        KvCacheManager::new(Blocks(blocks), Tokens(block_size))
    }

    /// Slot `i`; the unit tests give sequence `i` slot `i`.
    fn s(i: u32) -> SeqSlot {
        SeqSlot::new(i)
    }

    #[test]
    fn append_allocates_only_needed_blocks() {
        let mut m = mgr(10, 16);
        m.append(s(1), 1, Tokens(17)).unwrap();
        assert_eq!(m.free_blocks(), Blocks(8));
        // 15 more tokens fit in the second block's slack.
        m.append(s(1), 1, Tokens(15)).unwrap();
        assert_eq!(m.free_blocks(), Blocks(8));
        m.append(s(1), 1, Tokens(1)).unwrap();
        assert_eq!(m.free_blocks(), Blocks(7));
        assert_eq!(m.context_len(s(1), 1), Tokens(33));
    }

    #[test]
    fn failed_append_is_atomic() {
        let mut m = mgr(2, 16);
        m.append(s(1), 1, Tokens(16)).unwrap();
        let err = m.append(s(2), 2, Tokens(33)).unwrap_err();
        assert_eq!(
            err,
            KvError::OutOfBlocks { requested: Blocks(3), available: Blocks(1) }
        );
        assert_eq!(m.free_blocks(), Blocks(1));
        assert!(!m.contains(s(2), 2));
        assert_eq!(m.stats().num_sequences, 1);
    }

    #[test]
    fn free_returns_all_blocks() {
        let mut m = mgr(4, 4);
        m.append(s(7), 7, Tokens(13)).unwrap();
        assert_eq!(m.free_blocks(), Blocks(0));
        m.free(s(7), 7).unwrap();
        assert_eq!(m.free_blocks(), Blocks(4));
        assert_eq!(m.free_rate(), 1.0);
        assert!(matches!(m.free(s(7), 7), Err(KvError::UnknownSequence(7))));
    }

    #[test]
    fn a_slot_named_with_the_wrong_owner_is_an_unknown_sequence() {
        let mut m = mgr(8, 4);
        m.append(s(3), 30, Tokens(6)).unwrap();
        let before = m.stats();
        // Seq 31 names seq 30's slot: every operation refuses, none panics,
        // and seq 30's table is untouched.
        assert_eq!(m.append(s(3), 31, Tokens(1)), Err(KvError::UnknownSequence(31)));
        assert_eq!(m.free(s(3), 31), Err(KvError::UnknownSequence(31)));
        assert_eq!(m.evict(s(3), 31), Err(KvError::UnknownSequence(31)));
        assert_eq!(m.fork_prefix(s(3), 31, s(4), 40), Err(KvError::UnknownSequence(31)));
        assert!(!m.contains(s(3), 31) && m.table(s(3), 31).is_none());
        assert_eq!(m.context_len(s(3), 31), Tokens::ZERO);
        assert!(!m.can_append(s(3), 31, Tokens(1)));
        assert_eq!(m.max_appendable(s(3), 31), Tokens::ZERO);
        assert_eq!(m.stats(), before);
        assert_eq!(m.context_len(s(3), 30), Tokens(6));
        // Once seq 30 leaves, the slot serves seq 31.
        m.free(s(3), 30).unwrap();
        m.append(s(3), 31, Tokens(1)).unwrap();
        assert_eq!(m.live_sequences(), vec![(31, s(3))]);
    }

    #[test]
    fn evict_counts_preemptions_and_reports_lost_tokens() {
        let mut m = mgr(4, 4);
        m.append(s(1), 1, Tokens(10)).unwrap();
        assert_eq!(m.evict(s(1), 1).unwrap(), Tokens(10));
        assert_eq!(m.preemption_count(), 1);
        assert_eq!(m.free_blocks(), Blocks(4));
    }

    #[test]
    fn can_append_predicts_append() {
        let mut m = mgr(2, 8);
        assert!(m.can_append(s(1), 1, Tokens(16)));
        assert!(!m.can_append(s(1), 1, Tokens(17)));
        m.append(s(1), 1, Tokens(16)).unwrap();
        assert!(m.can_append(s(1), 1, Tokens(0)));
        assert!(!m.can_append(s(1), 1, Tokens(1)));
    }

    #[test]
    fn fork_shares_full_blocks_only() {
        let mut m = mgr(8, 4);
        m.append(s(1), 1, Tokens(10)).unwrap(); // 3 blocks, last partially filled
        let shared = m.fork_prefix(s(1), 1, s(2), 2).unwrap();
        assert_eq!(shared, Tokens(8));
        assert_eq!(m.context_len(s(2), 2), Tokens(8));
        // Only 3 blocks total allocated; 2 shared + 1 exclusive to parent.
        assert_eq!(m.stats().used_blocks, Blocks(3));
        assert!(!m.last_block_exclusive(s(2), 2));
        // Freeing the parent keeps the shared blocks alive.
        m.free(s(1), 1).unwrap();
        assert_eq!(m.stats().used_blocks, Blocks(2));
        assert_eq!(m.context_len(s(2), 2), Tokens(8));
        m.free(s(2), 2).unwrap();
        assert_eq!(m.free_blocks(), Blocks(8));
    }

    #[test]
    fn token_capacity_and_sizing_helpers() {
        let m = KvCacheManager::from_token_capacity(Tokens(1000), Tokens(16));
        assert_eq!(m.token_capacity(), Tokens(62 * 16));
        assert_eq!(m.block_size(), Tokens(16));
    }

    #[test]
    fn live_sequences_sorted() {
        let mut m = mgr(8, 4);
        m.append(s(0), 5, Tokens(1)).unwrap();
        m.append(s(1), 2, Tokens(1)).unwrap();
        m.append(s(2), 9, Tokens(1)).unwrap();
        assert_eq!(m.live_sequences(), vec![(2, s(1)), (5, s(0)), (9, s(2))]);
    }

    proptest! {
        /// Random append/free workloads never leak or double-count blocks,
        /// and `can_append` never lies.
        #[test]
        fn no_leaks_under_random_workload(
            ops in proptest::collection::vec((0u8..3, 0u32..6, 1usize..40), 1..300)
        ) {
            let mut m = mgr(32, 8);
            for (op, seq, tokens) in ops {
                let (slot, id) = (s(seq), u64::from(seq));
                match op {
                    0 => {
                        let fits = m.can_append(slot, id, Tokens(tokens));
                        let res = m.append(slot, id, Tokens(tokens));
                        prop_assert_eq!(fits, res.is_ok());
                    }
                    1 => { let _ = m.free(slot, id); }
                    _ => { let _ = m.evict(slot, id); }
                }
                let s = m.stats();
                prop_assert_eq!(s.free_blocks + s.used_blocks, s.total_blocks);
                let live_tokens: Tokens =
                    m.live_sequences().iter().map(|&(id, slot)| m.context_len(slot, id)).sum();
                // Every live token occupies a slot in some used block.
                prop_assert!(live_tokens <= s.used_blocks.to_tokens(m.block_size()));
            }
            for (id, slot) in m.live_sequences() {
                m.free(slot, id).unwrap();
            }
            prop_assert_eq!(m.free_rate(), 1.0);
        }
    }
}

/// The slot-indexed manager against the id-keyed one it replaced
/// ([`oracle`]): random append, free, evict and fork sequences, with
/// slots handed out and reused the way the request pool does, must leave
/// both with equal results, tables, free counts and stats after every
/// step. Some operations name a live slot with the wrong id; those must
/// fail without touching anything.
#[cfg(test)]
mod differential {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::oracle;
    use super::*;

    /// One operation: a kind, an id seed, a token count and a pick seed.
    type Op = (u8, u64, usize, usize);

    /// A pool-like slot numbering: live ids map to slots, and a freed
    /// slot is reused before a new one is opened.
    #[derive(Default)]
    struct Slots {
        of: BTreeMap<SeqId, SeqSlot>,
        free: Vec<SeqSlot>,
        next: u32,
    }

    impl Slots {
        fn get_or_open(&mut self, id: SeqId) -> SeqSlot {
            if let Some(&slot) = self.of.get(&id) {
                return slot;
            }
            let slot = self.free.pop().unwrap_or_else(|| {
                self.next += 1;
                SeqSlot::new(self.next - 1)
            });
            self.of.insert(id, slot);
            slot
        }

        fn close(&mut self, id: SeqId) {
            if let Some(slot) = self.of.remove(&id) {
                self.free.push(slot);
            }
        }
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec((0u8..10, 0u64..12, 0usize..40, 0usize..64), 1..250)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn slot_tables_match_the_id_map(ops in ops()) {
            let mut m = KvCacheManager::new(Blocks(24), Tokens(4));
            let mut reference = oracle::KvCacheManager::new(Blocks(24), Tokens(4));
            let mut slots = Slots::default();
            for (kind, id, tokens, pick) in ops {
                let tokens = Tokens(tokens);
                match kind {
                    0..=3 => {
                        let slot = slots.get_or_open(id);
                        prop_assert_eq!(m.can_append(slot, id, tokens), reference.can_append(id, tokens));
                        prop_assert_eq!(m.max_appendable(slot, id), reference.max_appendable(id));
                        let got = m.append(slot, id, tokens);
                        prop_assert_eq!(got, reference.append(id, tokens));
                        if got.is_err() && !m.contains(slot, id) {
                            slots.close(id);
                        }
                    }
                    4 | 5 => {
                        let Some(&slot) = slots.of.get(&id) else { continue };
                        let got = if kind == 4 {
                            m.free(slot, id).map(|()| Tokens::ZERO)
                        } else {
                            m.evict(slot, id)
                        };
                        let want = if kind == 4 {
                            reference.free(id).map(|()| Tokens::ZERO)
                        } else {
                            reference.evict(id)
                        };
                        prop_assert_eq!(got, want);
                        slots.close(id);
                    }
                    6 => {
                        // Fork a live parent into a fresh child id.
                        let child = id | 1 << 32;
                        let Some(&parent_slot) = slots.of.values().nth(pick % slots.of.len().max(1)) else { continue };
                        let parent = slots.of.iter().find(|&(_, &s)| s == parent_slot).map(|(&p, _)| p);
                        let Some(parent) = parent else { continue };
                        if slots.of.contains_key(&child) {
                            continue;
                        }
                        let child_slot = slots.get_or_open(child);
                        prop_assert_eq!(
                            m.fork_prefix(parent_slot, parent, child_slot, child),
                            reference.fork_prefix(parent, child)
                        );
                    }
                    _ => {
                        // A live slot named with another id: refused, and
                        // nothing changes.
                        let Some(&slot) = slots.of.values().nth(pick % slots.of.len().max(1)) else { continue };
                        let stranger = id | 1 << 40;
                        let before = m.stats();
                        prop_assert_eq!(m.append(slot, stranger, tokens), Err(KvError::UnknownSequence(stranger)));
                        prop_assert_eq!(m.free(slot, stranger), Err(KvError::UnknownSequence(stranger)));
                        prop_assert_eq!(m.evict(slot, stranger), Err(KvError::UnknownSequence(stranger)));
                        prop_assert!(!m.can_append(slot, stranger, Tokens::ZERO));
                        prop_assert_eq!(m.stats(), before);
                    }
                }
                prop_assert_eq!(m.stats(), reference.stats());
                prop_assert_eq!(m.free_blocks(), reference.free_blocks());
                let live: Vec<SeqId> = m.live_sequences().iter().map(|&(id, _)| id).collect();
                prop_assert_eq!(live, reference.live_sequences());
                for (&id, &slot) in &slots.of {
                    prop_assert_eq!(m.table(slot, id), reference.table(id));
                    prop_assert_eq!(m.context_len(slot, id), reference.context_len(id));
                    prop_assert_eq!(m.last_block_exclusive(slot, id), reference.last_block_exclusive(id));
                }
                for (id, slot) in m.live_sequences() {
                    prop_assert_eq!(slots.of.get(&id), Some(&slot));
                }
            }
        }
    }
}
