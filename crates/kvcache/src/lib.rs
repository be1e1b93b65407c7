//! PagedAttention-style KV cache management.
//!
//! The paper's gLLM engine adopts vLLM's paged KV cache (§3.4): device
//! memory is carved into fixed-size blocks, each sequence owns a page table
//! mapping logical token positions to physical blocks, and all pipeline
//! stages share one unified page table managed by the driver worker (§3.3).
//! This crate implements that substrate:
//!
//! * [`allocator::BlockAllocator`] — free-list allocator with reference
//!   counts (reference counts enable prefix sharing / copy-on-write),
//! * [`page_table::PageTable`] — a sequence's logical→physical mapping,
//! * [`manager::KvCacheManager`] — the driver-side manager: allocation for
//!   prefill chunks, extension for decode steps, preemption (eviction with
//!   recomputation bookkeeping), watermarks, and the *free-rate* signal
//!   (`KV_free`) that Token Throttling's UT component consumes.
//!
//! The same manager backs both the discrete-event simulator and the real
//! threaded runtime, so the KV pressure the scheduler reacts to is computed
//! by identical code in both planes.

pub mod allocator;
pub mod manager;
pub mod page_table;

pub use allocator::{BlockAllocator, BlockId};
pub use manager::{KvCacheManager, KvError, KvStats, SeqId, SeqSlot};
pub use page_table::PageTable;

// Re-exported so downstream crates can name the unit newtypes without a
// separate `gllm-units` dependency edge.
pub use gllm_units::{Blocks, Bytes, Tokens};
