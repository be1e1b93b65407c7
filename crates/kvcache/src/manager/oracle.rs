//! The id-keyed KV cache manager the slot-indexed one replaced, kept as
//! the oracle of the differential test in `manager.rs`: every page table
//! in a `BTreeMap<SeqId, PageTable>`, one map probe per operation.

use std::collections::BTreeMap;

use gllm_units::{Blocks, Tokens};

use super::{KvError, KvStats, SeqId};
use crate::allocator::{BlockAllocator, BlockId};
use crate::page_table::PageTable;

/// The unified KV cache manager shared by every pipeline stage.
#[derive(Debug, Clone)]
pub struct KvCacheManager {
    block_size: Tokens,
    allocator: BlockAllocator,
    tables: BTreeMap<SeqId, PageTable>,
    preemptions: u64,
}

impl KvCacheManager {
    /// A manager over `num_blocks` blocks of `block_size` tokens each.
    pub fn new(num_blocks: Blocks, block_size: Tokens) -> Self {
        Self {
            block_size,
            allocator: BlockAllocator::new(num_blocks),
            tables: BTreeMap::new(),
            preemptions: 0,
        }
    }

    /// Free blocks right now.
    pub fn free_blocks(&self) -> Blocks {
        self.allocator.num_free()
    }

    /// Tokens cached for `seq` (0 when unknown).
    pub fn context_len(&self, seq: SeqId) -> Tokens {
        self.tables.get(&seq).map_or(Tokens::ZERO, PageTable::num_tokens)
    }

    /// Borrow a sequence's page table.
    pub fn table(&self, seq: SeqId) -> Option<&PageTable> {
        self.tables.get(&seq)
    }

    /// Whether appending `tokens` to `seq` would succeed right now.
    pub fn can_append(&self, seq: SeqId, tokens: Tokens) -> bool {
        let needed = match self.tables.get(&seq) {
            Some(t) => t.blocks_needed_for(tokens),
            None => tokens.to_blocks(self.block_size),
        };
        needed <= self.allocator.num_free()
    }

    /// Maximum tokens appendable to `seq` right now.
    pub fn max_appendable(&self, seq: SeqId) -> Tokens {
        let slack = self.tables.get(&seq).map_or(Tokens::ZERO, PageTable::slack);
        slack + self.allocator.num_free().to_tokens(self.block_size)
    }

    /// Append `tokens` slots to `seq`, creating its table on first use.
    pub fn append(&mut self, seq: SeqId, tokens: Tokens) -> Result<(), KvError> {
        let needed = match self.tables.get(&seq) {
            Some(t) => t.blocks_needed_for(tokens),
            None => tokens.to_blocks(self.block_size),
        };
        let available = self.allocator.num_free();
        let new_blocks = self
            .allocator
            .allocate_many(needed)
            .ok_or(KvError::OutOfBlocks { requested: needed, available })?;
        let table = self.tables.entry(seq).or_insert_with(|| PageTable::new(self.block_size));
        table.push_blocks(new_blocks);
        table.fill(tokens);
        Ok(())
    }

    /// Release every block owned by `seq`.
    pub fn free(&mut self, seq: SeqId) -> Result<(), KvError> {
        let mut table = self.tables.remove(&seq).ok_or(KvError::UnknownSequence(seq))?;
        for b in table.take_blocks() {
            self.allocator.release(b);
        }
        Ok(())
    }

    /// Evict `seq`, returning the cached tokens it loses.
    pub fn evict(&mut self, seq: SeqId) -> Result<Tokens, KvError> {
        let lost = self.context_len(seq);
        self.free(seq)?;
        self.preemptions += 1;
        Ok(lost)
    }

    /// Share the whole-block prefix of `parent` with the new `child`.
    pub fn fork_prefix(&mut self, parent: SeqId, child: SeqId) -> Result<Tokens, KvError> {
        assert!(!self.tables.contains_key(&child), "child {child} already exists");
        let parent_table = self.tables.get(&parent).ok_or(KvError::UnknownSequence(parent))?;
        let full_blocks = parent_table.num_tokens().full_blocks(self.block_size);
        let shared: Vec<BlockId> = parent_table.blocks().iter().take(full_blocks.get()).copied().collect();
        for &b in &shared {
            self.allocator.retain(b);
        }
        let mut table = PageTable::new(self.block_size);
        let tokens = full_blocks.to_tokens(self.block_size);
        table.push_blocks(shared);
        table.fill(tokens);
        self.tables.insert(child, table);
        Ok(tokens)
    }

    /// Whether the last block of `seq` is exclusively owned.
    pub fn last_block_exclusive(&self, seq: SeqId) -> bool {
        self.tables
            .get(&seq)
            .and_then(|t| t.blocks().last())
            .is_none_or(|&b| self.allocator.is_exclusive(b))
    }

    /// Occupancy snapshot.
    pub fn stats(&self) -> KvStats {
        KvStats {
            total_blocks: self.allocator.num_total(),
            free_blocks: self.allocator.num_free(),
            used_blocks: self.allocator.num_used(),
            num_sequences: self.tables.len(),
            preemptions: self.preemptions,
        }
    }

    /// Ids of all live sequences, in ascending order.
    pub fn live_sequences(&self) -> Vec<SeqId> {
        self.tables.keys().copied().collect()
    }
}
