//! Pipeline invariant auditing.
//!
//! The simulator and the threaded runtime share one scheduling contract:
//! KV is allocated block-granularly at schedule time, at most `#PP_depth`
//! micro-batches coexist in the pipeline, committed plans never exceed
//! what the policy budgeted, and prefill admission is FCFS. Violations of
//! any of these are silent accounting bugs — throughput numbers stay
//! plausible while KV leaks or batches overcommit and thrash.
//!
//! [`InvariantAuditor`] shadows the scheduler's state from the same event
//! stream both execution planes already produce (schedule, complete,
//! evict) and cross-checks it against the KV cache manager's observed
//! occupancy on every transition. It checks:
//!
//! 1. **KV accounting** — the manager's used/free block counts equal the
//!    sum of per-sequence allocations at block granularity,
//! 2. **KV overcommit** — a *proposed* plan fits the free blocks it was
//!    planned against (catches token-granular reservations that admission
//!    would silently trim),
//! 3. **Pipeline depth** — never more than `#PP_depth` batches in flight,
//! 4. **Budget conformance** — plans respect the policy's declared
//!    prefill/decode budgets, and admission only ever trims a plan,
//! 5. **FCFS admission** — a sequence never starts prefilling before an
//!    earlier arrival that has not started (and is still live).
//!
//! Every transition costs O(plan · log n) and none rescans the request
//! history: a first chunk reads only the still-unstarted arrivals ahead
//! of it, the KV cross-check compares against a running block total, and
//! conformance looks seqs up in a sorted copy of the proposal. The shadow
//! contexts are indexed by the pool's [`SeqSlot`], as the KV manager's
//! page tables are, so applying a plan's decode slots costs no id lookup;
//! each shadow records its owner, and a plan or completion naming a slot
//! with another id is a KV-accounting violation. Both planes therefore
//! keep the auditor on in every test, and a long closed-loop run does not
//! slow down as requests accumulate.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use gllm_core::{BatchPlan, Blocks, SeqSlot, Tokens};
use serde::Serialize;

// Shared with the scheduler: blocks a sequence at `context` tokens must
// acquire to append `tokens` more (the page-table invariant of the KV
// manager). Re-exported so existing auditor callers keep compiling.
pub use gllm_core::blocks_to_append;

/// Occupancy observed from the KV cache manager at a transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct KvObservation {
    /// Free physical blocks.
    pub free_blocks: Blocks,
    /// Blocks with at least one owner.
    pub used_blocks: Blocks,
}

/// Budget caps a policy declared for one scheduling decision (see
/// `SchedulePolicy::budget_caps`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct PlanCaps {
    /// Maximum batched prefill tokens.
    pub prefill_tokens: Tokens,
    /// Maximum decode sequences.
    pub decode_seqs: usize,
}

/// Which contract a violation broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Invariant {
    /// Shadow per-sequence allocations disagree with the KV manager.
    KvAccounting,
    /// A proposed plan did not fit the free blocks it was planned against.
    KvOvercommit,
    /// More than `#PP_depth` micro-batches in flight.
    PipelineDepth,
    /// A plan exceeded the policy's declared budgets, or admission grew it.
    BudgetConformance,
    /// Prefill admission inverted FCFS order.
    FcfsAdmission,
    /// The runtime's own bookkeeping went inconsistent (e.g. a committed
    /// chunk without a KV table or pool entry) and the affected request
    /// was rejected instead of panicking the driver.
    RuntimeIntegrity,
}

/// One detected contract violation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Violation {
    /// Engine time (virtual or wall-clock seconds) of the transition.
    pub t_s: f64,
    /// Micro-batch under audit, if the transition had one.
    pub batch: Option<u64>,
    /// Broken contract.
    pub invariant: Invariant,
    /// Human-readable specifics.
    pub detail: String,
}

/// Point-in-time digest of the auditor's shadow state — attached to stall
/// errors so a wedged runtime reports *why* it stopped scheduling.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AuditSnapshot {
    /// Time of the last audited transition.
    pub t_s: f64,
    /// Micro-batches audited so far.
    pub batches_checked: u64,
    /// Micro-batches currently in flight.
    pub in_flight: usize,
    /// Pipeline depth limit.
    pub depth: usize,
    /// Sequences currently holding KV.
    pub live_kv_seqs: usize,
    /// Blocks the shadow accounting says are allocated.
    pub shadow_used_blocks: Blocks,
    /// Total physical blocks.
    pub total_blocks: Blocks,
    /// Violations recorded so far.
    pub violations: usize,
    /// Injected faults observed so far (kills, drops, delays, KV-alloc
    /// failures — see `gllm-runtime`'s fault module).
    pub faults_injected: u64,
    /// Completed pipeline recoveries (teardown + respawn + requeue).
    pub recoveries: u64,
    /// In-flight micro-batches rolled back and requeued across all
    /// recoveries.
    pub batches_requeued: u64,
    /// Requests terminated with a structured failure event instead of an
    /// output (KV-fault exhaustion, integrity rejection, fail-open).
    pub requests_failed: u64,
}

/// Final audit result of a run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AuditReport {
    /// Every violation, in detection order.
    pub violations: Vec<Violation>,
    /// Micro-batches audited.
    pub batches_checked: u64,
    /// Shadow state at the end of the run.
    pub final_snapshot: AuditSnapshot,
}

impl AuditReport {
    /// True when the run broke no invariant.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panic with every violation listed unless the run was clean.
    pub fn assert_clean(&self, plane: &str) {
        assert!(
            self.is_clean(),
            "{plane}: {} invariant violation(s):\n{}",
            self.violations.len(),
            self.violations
                .iter()
                .map(|v| format!("  [{:?}] t={:.6} batch={:?}: {}", v.invariant, v.t_s, v.batch, v.detail))
                .collect::<Vec<_>>()
                .join("\n"),
        );
    }
}

/// Shadow scheduler state cross-checked on every transition.
#[derive(Debug, Clone)]
pub struct InvariantAuditor {
    block_size: Tokens,
    total_blocks: Blocks,
    depth: usize,

    in_flight: usize,
    batches_checked: u64,
    last_t: f64,

    faults_injected: u64,
    recoveries: u64,
    batches_requeued: u64,
    requests_failed: u64,

    /// Arrival index per request id, in submission order. Ordered maps
    /// keep violation details deterministic across runs (sim-determinism).
    arrival_idx: BTreeMap<u64, usize>,
    next_arrival: usize,
    /// Requests that have received their first prefill chunk.
    started: BTreeSet<u64>,
    /// Requests that finished or were rejected (exempt from FCFS checks).
    gone: BTreeSet<u64>,
    /// Arrivals that have neither started nor left, keyed by arrival
    /// index: exactly the requests a first chunk could skip.
    unstarted: BTreeMap<usize, u64>,
    /// Committed KV tokens of each sequence holding cache, with its id, by
    /// pool slot; `None` marks a slot holding none.
    ctx: Vec<Option<(u64, Tokens)>>,
    /// Occupied entries of `ctx`.
    live_kv: usize,
    /// `ctx` summed at block granularity, updated wherever `ctx` changes.
    shadow_used: Blocks,

    violations: Vec<Violation>,
}

impl InvariantAuditor {
    /// An auditor over `total_blocks` KV blocks of `block_size` tokens on
    /// a pipeline of `depth` stages.
    pub fn new(total_blocks: Blocks, block_size: Tokens, depth: usize) -> Self {
        Self {
            block_size: block_size.max(Tokens(1)),
            total_blocks,
            depth: depth.max(1),
            in_flight: 0,
            batches_checked: 0,
            last_t: 0.0,
            faults_injected: 0,
            recoveries: 0,
            batches_requeued: 0,
            requests_failed: 0,
            arrival_idx: BTreeMap::new(),
            next_arrival: 0,
            started: BTreeSet::new(),
            gone: BTreeSet::new(),
            unstarted: BTreeMap::new(),
            ctx: Vec::new(),
            live_kv: 0,
            shadow_used: Blocks::ZERO,
            violations: Vec::new(),
        }
    }

    /// A request entered the system (records FCFS arrival order).
    pub fn on_arrival(&mut self, seq: u64) {
        if let Entry::Vacant(e) = self.arrival_idx.entry(seq) {
            let idx = self.next_arrival;
            self.next_arrival += 1;
            e.insert(idx);
            if !self.started.contains(&seq) && !self.gone.contains(&seq) {
                self.unstarted.insert(idx, seq);
            }
        }
    }

    /// A request was rejected before admission (oversized, empty, …).
    pub fn on_abort(&mut self, seq: u64) {
        self.leave(seq);
    }

    /// The KV of `seq` in `slot` was evicted (recompute preemption): it
    /// returns to the waiting queue with an empty context. Evicting a
    /// sequence that held no KV is a no-op; naming a slot whose shadow
    /// belongs to another sequence is a violation.
    pub fn on_evict(&mut self, slot: SeqSlot, seq: u64) {
        if let Err(Some(owner)) = self.release_kv(slot, seq) {
            let (t, slot) = (self.last_t, slot.index());
            self.violate(
                t,
                None,
                Invariant::KvAccounting,
                format!("evicted seq {seq} names slot {slot}, which holds seq {owner}'s shadow KV"),
            );
        }
    }

    /// An injected fault fired somewhere in the pipeline (the runtime
    /// drains the injector's firing log into this counter so every fault
    /// is visible in the snapshot, even ones that needed no recovery).
    pub fn on_fault(&mut self, t_s: f64) {
        self.last_t = t_s;
        self.faults_injected += 1;
    }

    /// The driver tore the pipeline down, rolled back `lost_batches`
    /// in-flight micro-batches for requeueing, and respawned the stages.
    /// The rolled-back batches leave the in-flight count: their
    /// completions will never arrive.
    pub fn on_recovery(&mut self, t_s: f64, lost_batches: usize) {
        self.last_t = t_s;
        self.recoveries += 1;
        self.batches_requeued += lost_batches as u64;
        self.in_flight = self.in_flight.saturating_sub(lost_batches);
    }

    /// A live request was terminated with a structured failure event
    /// (bounded retries exhausted, or fail-open after too many
    /// recoveries). Like an abort, it leaves the FCFS universe. The KV it
    /// held leaves the shadow through [`Self::on_evict`], as it leaves the
    /// cache through an eviction.
    pub fn on_request_failed(&mut self, t_s: f64, seq: u64) {
        self.last_t = t_s;
        self.requests_failed += 1;
        self.leave(seq);
    }

    /// The runtime detected an internal bookkeeping inconsistency and
    /// rejected the request instead of panicking. Recorded as a
    /// [`Invariant::RuntimeIntegrity`] violation.
    pub fn on_integrity_failure(&mut self, t_s: f64, batch: Option<u64>, detail: String) {
        self.violate(t_s, batch, Invariant::RuntimeIntegrity, detail);
    }

    /// Audit one scheduling decision: `proposed` is the policy's raw plan,
    /// `committed` what admission actually placed, `before`/`after` the KV
    /// occupancy around admission, `caps` the policy's declared budgets.
    #[allow(clippy::too_many_arguments)]
    pub fn on_schedule(
        &mut self,
        t_s: f64,
        batch: u64,
        proposed: &BatchPlan,
        committed: &BatchPlan,
        caps: Option<PlanCaps>,
        before: KvObservation,
        after: KvObservation,
    ) {
        self.last_t = t_s;
        self.batches_checked += 1;

        // (3) Pipeline depth.
        if self.in_flight >= self.depth {
            self.violate(
                t_s,
                Some(batch),
                Invariant::PipelineDepth,
                format!("scheduled with {} batches already in flight (depth {})", self.in_flight, self.depth),
            );
        }
        self.in_flight += 1;

        self.check_overcommit(t_s, batch, proposed, before);
        self.check_conformance(t_s, batch, proposed, committed, caps);
        self.check_fcfs(t_s, batch, committed);

        // (1) Apply the committed plan to the shadow allocations, then the
        // manager must agree block-for-block.
        let chunks = committed.prefill.iter().map(|c| ("prefill chunk", c.slot, c.seq, c.tokens, c.context_before));
        let slots = committed.decode.iter().map(|d| ("decode slot", d.slot, d.seq, Tokens(1), d.context_before));
        for (what, slot, seq, tokens, claimed) in chunks.chain(slots) {
            let detail = match self.grow_kv(slot, seq, tokens) {
                Ok(cur) if cur == claimed => continue,
                Ok(cur) => format!("seq {seq} {what} claims context {claimed} but shadow holds {cur}"),
                Err(owner) => {
                    format!("seq {seq} {what} names slot {}, which holds seq {owner}'s shadow KV", slot.index())
                }
            };
            self.violate(t_s, Some(batch), Invariant::KvAccounting, detail);
        }
        self.check_kv(t_s, Some(batch), after);
    }

    /// Append `tokens` to the shadow context of `seq` in `slot` and return
    /// the context it held before, or the owner's id (leaving the shadow
    /// untouched) when the slot's shadow belongs to another sequence.
    fn grow_kv(&mut self, slot: SeqSlot, seq: u64, tokens: Tokens) -> Result<Tokens, u64> {
        let i = slot.index();
        if i >= self.ctx.len() {
            self.ctx.resize(i + 1, None);
        }
        let entry = &mut self.ctx[i];
        let held = match entry {
            Some((owner, held)) if *owner == seq => held,
            Some((owner, _)) => return Err(*owner),
            None => {
                self.live_kv += 1;
                &mut entry.insert((seq, Tokens::ZERO)).1
            }
        };
        let cur = *held;
        *held = cur + tokens;
        self.shadow_used += blocks_to_append(cur, tokens, self.block_size);
        Ok(cur)
    }

    /// Forget the shadow context of `seq` in `slot`. `Err(None)` when the
    /// slot holds none, `Err(Some(owner))` when it holds another
    /// sequence's (left untouched).
    fn release_kv(&mut self, slot: SeqSlot, seq: u64) -> Result<(), Option<u64>> {
        let entry = self.ctx.get_mut(slot.index()).ok_or(None)?;
        match *entry {
            Some((owner, held)) if owner == seq => {
                *entry = None;
                self.live_kv -= 1;
                self.shadow_used -= held.to_blocks(self.block_size);
                Ok(())
            }
            Some((owner, _)) => Err(Some(owner)),
            None => Err(None),
        }
    }

    /// `seq` finished or was rejected: it leaves the FCFS universe.
    fn leave(&mut self, seq: u64) {
        self.gone.insert(seq);
        if let Some(idx) = self.arrival_idx.get(&seq) {
            self.unstarted.remove(idx);
        }
    }

    /// Audit one batch completion. `finished` lists the sequences, with
    /// their slots, whose KV the engine freed; `after` is the occupancy
    /// after those frees.
    pub fn on_complete(&mut self, t_s: f64, batch: u64, finished: &[(u64, SeqSlot)], after: KvObservation) {
        self.last_t = t_s;
        if self.in_flight == 0 {
            self.violate(
                t_s,
                Some(batch),
                Invariant::PipelineDepth,
                "batch completed with nothing in flight".to_string(),
            );
        } else {
            self.in_flight -= 1;
        }
        for &(id, slot) in finished {
            self.leave(id);
            let detail = match self.release_kv(slot, id) {
                Ok(()) => continue,
                Err(None) => format!("finished seq {id} held no shadow KV"),
                Err(Some(owner)) => format!(
                    "finished seq {id} names slot {}, which holds seq {owner}'s shadow KV",
                    slot.index()
                ),
            };
            self.violate(t_s, Some(batch), Invariant::KvAccounting, detail);
        }
        self.check_kv(t_s, Some(batch), after);
    }

    /// (2) The proposed plan must fit the free blocks it was planned
    /// against. Decode growth may legitimately exceed free space (that is
    /// what recompute preemption is for) — but then the policy must not
    /// propose prefill on top.
    fn check_overcommit(&mut self, t_s: f64, batch: u64, proposed: &BatchPlan, before: KvObservation) {
        let bs = self.block_size;
        let mut left = before.free_blocks;
        let mut decode_exhausted = false;
        for d in &proposed.decode {
            let need = blocks_to_append(d.context_before, Tokens(1), bs);
            if need > left {
                decode_exhausted = true;
                left = Blocks::ZERO;
            } else {
                left -= need;
            }
        }
        if decode_exhausted {
            // Preemption will make room for the decodes; new prefill blocks
            // on top would be indefensible. Chunks that fit entirely in the
            // slack of their sequence's own partial last block allocate
            // nothing, so they stay legal.
            for c in &proposed.prefill {
                let need = blocks_to_append(c.context_before, c.tokens, bs);
                if !need.is_zero() {
                    self.violate(
                        t_s,
                        Some(batch),
                        Invariant::KvOvercommit,
                        format!(
                            "chunk for seq {} needs {} fresh block(s) while decode growth \
                             alone exceeds {} free blocks",
                            c.seq, need, before.free_blocks
                        ),
                    );
                    return;
                }
            }
            return;
        }
        for c in &proposed.prefill {
            let need = blocks_to_append(c.context_before, c.tokens, bs);
            if need > left {
                self.violate(
                    t_s,
                    Some(batch),
                    Invariant::KvOvercommit,
                    format!(
                        "proposed plan overcommits KV: chunk for seq {} needs {} blocks with {} left \
                         ({} free before the batch, block size {})",
                        c.seq, need, left, before.free_blocks, bs
                    ),
                );
                return;
            }
            left -= need;
        }
    }

    /// (4) Admission only trims; the policy's declared budgets bound the
    /// proposal.
    fn check_conformance(
        &mut self,
        t_s: f64,
        batch: u64,
        proposed: &BatchPlan,
        committed: &BatchPlan,
        caps: Option<PlanCaps>,
    ) {
        if let Some(caps) = caps {
            let p = proposed.prefill_tokens();
            if p > caps.prefill_tokens {
                self.violate(
                    t_s,
                    Some(batch),
                    Invariant::BudgetConformance,
                    format!("proposed {} prefill tokens over the policy's budget {}", p, caps.prefill_tokens),
                );
            }
            if proposed.decode.len() > caps.decode_seqs {
                self.violate(
                    t_s,
                    Some(batch),
                    Invariant::BudgetConformance,
                    format!("proposed {} decode seqs over the policy's budget {}", proposed.decode.len(), caps.decode_seqs),
                );
            }
        }
        // Per-plan seq lookups. The stable sort keeps a seq's chunks in plan
        // order, so the dedup keeps its first proposed chunk.
        let mut proposed_chunks: Vec<(u64, Tokens)> = proposed.prefill.iter().map(|p| (p.seq, p.tokens)).collect();
        proposed_chunks.sort_by_key(|&(seq, _)| seq);
        proposed_chunks.dedup_by_key(|&mut (seq, _)| seq);
        let mut proposed_decode: Vec<u64> = proposed.decode.iter().map(|d| d.seq).collect();
        proposed_decode.sort_unstable();
        for c in &committed.prefill {
            let proposed_tokens = proposed_chunks
                .binary_search_by_key(&c.seq, |&(seq, _)| seq)
                .ok()
                .and_then(|i| proposed_chunks.get(i))
                .map(|&(_, tokens)| tokens);
            match proposed_tokens {
                Some(p) if c.tokens <= p => {}
                Some(p) => self.violate(
                    t_s,
                    Some(batch),
                    Invariant::BudgetConformance,
                    format!("admission grew seq {}'s chunk from {} to {} tokens", c.seq, p, c.tokens),
                ),
                None => self.violate(
                    t_s,
                    Some(batch),
                    Invariant::BudgetConformance,
                    format!("admission invented a prefill chunk for seq {}", c.seq),
                ),
            }
        }
        for d in &committed.decode {
            if proposed_decode.binary_search(&d.seq).is_err() {
                self.violate(
                    t_s,
                    Some(batch),
                    Invariant::BudgetConformance,
                    format!("admission invented a decode slot for seq {}", d.seq),
                );
            }
        }
    }

    /// (5) FCFS: chunks within a plan follow arrival order, and a sequence
    /// never starts while an earlier arrival waits unstarted.
    fn check_fcfs(&mut self, t_s: f64, batch: u64, committed: &BatchPlan) {
        let mut prev_idx: Option<usize> = None;
        for c in &committed.prefill {
            let Some(&idx) = self.arrival_idx.get(&c.seq) else {
                self.started.insert(c.seq);
                continue;
            };
            if let Some(p) = prev_idx {
                if idx < p {
                    self.violate(
                        t_s,
                        Some(batch),
                        Invariant::FcfsAdmission,
                        format!("prefill chunks out of arrival order (seq {} after a later arrival)", c.seq),
                    );
                }
            }
            prev_idx = Some(idx);
            if self.started.insert(c.seq) {
                // First-ever chunk: every earlier arrival must have started
                // or left the system, i.e. none may still be unstarted.
                self.unstarted.remove(&idx);
                let mut skipped: Vec<u64> = self.unstarted.range(..idx).map(|(_, &id)| id).collect();
                if !skipped.is_empty() {
                    skipped.sort_unstable();
                    self.violate(
                        t_s,
                        Some(batch),
                        Invariant::FcfsAdmission,
                        format!("seq {} started before earlier unstarted arrivals {:?}", c.seq, skipped),
                    );
                }
            }
        }
    }

    /// (1) Shadow allocations vs. observed occupancy, block-granular.
    fn check_kv(&mut self, t_s: f64, batch: Option<u64>, obs: KvObservation) {
        let shadow_used = self.shadow_used;
        if shadow_used != obs.used_blocks || self.total_blocks - shadow_used != obs.free_blocks {
            self.violate(
                t_s,
                batch,
                Invariant::KvAccounting,
                format!(
                    "shadow accounting says {}/{} blocks used, manager reports {} used / {} free",
                    shadow_used, self.total_blocks, obs.used_blocks, obs.free_blocks
                ),
            );
        }
    }

    fn violate(&mut self, t_s: f64, batch: Option<u64>, invariant: Invariant, detail: String) {
        self.violations.push(Violation { t_s, batch, invariant, detail });
    }

    /// Violations recorded so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// True while no invariant has been broken.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Current shadow-state digest.
    pub fn snapshot(&self) -> AuditSnapshot {
        AuditSnapshot {
            t_s: self.last_t,
            batches_checked: self.batches_checked,
            in_flight: self.in_flight,
            depth: self.depth,
            live_kv_seqs: self.live_kv,
            shadow_used_blocks: self.shadow_used,
            total_blocks: self.total_blocks,
            violations: self.violations.len(),
            faults_injected: self.faults_injected,
            recoveries: self.recoveries,
            batches_requeued: self.batches_requeued,
            requests_failed: self.requests_failed,
        }
    }

    /// Consume the auditor into the final report. When the engine drained
    /// cleanly, also verifies nothing leaked: no live shadow allocations
    /// and nothing in flight.
    pub fn into_report(self, drained: bool) -> AuditReport {
        let mut this = self;
        if drained {
            if this.live_kv != 0 {
                let mut leaked: Vec<u64> = this.ctx.iter().flatten().map(|&(id, _)| id).collect();
                leaked.sort_unstable();
                let t = this.last_t;
                this.violate(
                    t,
                    None,
                    Invariant::KvAccounting,
                    format!("drained run left shadow KV for seqs {leaked:?}"),
                );
            }
            if this.in_flight != 0 {
                let (t, n) = (this.last_t, this.in_flight);
                this.violate(
                    t,
                    None,
                    Invariant::PipelineDepth,
                    format!("drained run left {n} batches in flight"),
                );
            }
        }
        let final_snapshot = this.snapshot();
        AuditReport {
            violations: this.violations,
            batches_checked: this.batches_checked,
            final_snapshot,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gllm_core::{BatchPlan, DecodeSlot, PrefillChunk, SeqSlot};
    use proptest::prelude::*;

    /// The slot the tests give sequence `seq`: its own number.
    fn slot_of(seq: u64) -> SeqSlot {
        SeqSlot::new(u32::try_from(seq).expect("small test ids"))
    }

    /// Finished sequences with their slots.
    fn fin(seqs: &[u64]) -> Vec<(u64, SeqSlot)> {
        seqs.iter().map(|&seq| (seq, slot_of(seq))).collect()
    }

    fn chunk(seq: u64, tokens: usize, context_before: usize, completes: bool) -> PrefillChunk {
        PrefillChunk {
            seq,
            slot: slot_of(seq),
            tokens: Tokens(tokens),
            context_before: Tokens(context_before),
            completes_prompt: completes,
        }
    }

    fn slot(seq: u64, context_before: usize) -> DecodeSlot {
        DecodeSlot { seq, slot: slot_of(seq), context_before: Tokens(context_before) }
    }

    fn obs(free: usize, used: usize) -> KvObservation {
        KvObservation { free_blocks: Blocks(free), used_blocks: Blocks(used) }
    }

    fn auditor(total_blocks: usize, block_size: usize, depth: usize) -> InvariantAuditor {
        InvariantAuditor::new(Blocks(total_blocks), Tokens(block_size), depth)
    }

    #[test]
    fn blocks_to_append_rounds_like_the_page_table() {
        let bs = Tokens(16);
        assert_eq!(blocks_to_append(Tokens(0), Tokens(1), bs), Blocks(1));
        assert_eq!(blocks_to_append(Tokens(0), Tokens(16), bs), Blocks(1));
        assert_eq!(blocks_to_append(Tokens(0), Tokens(17), bs), Blocks(2));
        assert_eq!(blocks_to_append(Tokens(15), Tokens(1), bs), Blocks(0));
        assert_eq!(blocks_to_append(Tokens(16), Tokens(1), bs), Blocks(1));
        assert_eq!(blocks_to_append(Tokens(20), Tokens(12), bs), Blocks(0));
        assert_eq!(blocks_to_append(Tokens(20), Tokens(13), bs), Blocks(1));
    }

    #[test]
    fn clean_schedule_and_complete_pass() {
        let mut a = auditor(8, 16, 2);
        a.on_arrival(1);
        let plan = BatchPlan { prefill: vec![chunk(1, 20, 0, true)], decode: vec![] };
        a.on_schedule(0.0, 0, &plan, &plan, None, obs(8, 0), obs(6, 2));
        let decode = BatchPlan { prefill: vec![], decode: vec![slot(1, 20)] };
        a.on_complete(0.1, 0, &fin(&[]), obs(6, 2));
        a.on_schedule(0.2, 1, &decode, &decode, None, obs(6, 2), obs(6, 2));
        a.on_complete(0.3, 1, &fin(&[1]), obs(8, 0));
        assert!(a.is_clean(), "{:?}", a.violations());
        assert!(a.into_report(true).is_clean());
    }

    #[test]
    fn token_granular_decode_reserve_trips_overcommit() {
        // The pre-fix TokenThrottle bug: 4 decodes at full blocks need 4
        // new blocks, but the policy reserved 4 *tokens* and carved a
        // 63-token prefill into 5 free blocks.
        let mut a = auditor(21, 16, 4);
        for s in 0..5 {
            a.on_arrival(s);
        }
        // Shadow contexts: 4 decodes already hold 64 tokens (16 blocks),
        // leaving 5 free.
        let warmup = BatchPlan { prefill: (0..4).map(|s| chunk(s, 64, 0, true)).collect(), decode: vec![] };
        a.on_schedule(0.0, 0, &warmup, &warmup, None, obs(21, 0), obs(5, 16));
        a.on_complete(0.5, 0, &fin(&[]), obs(5, 16));
        let proposed = BatchPlan {
            prefill: vec![chunk(4, 63, 0, false)],
            decode: (0..4).map(|s| slot(s, 64)).collect(),
        };
        // Admission trimmed the chunk to what actually fits — the proposal
        // is still wrong.
        let committed = BatchPlan {
            prefill: vec![chunk(4, 16, 0, false)],
            decode: (0..4).map(|s| slot(s, 64)).collect(),
        };
        a.on_schedule(1.0, 1, &proposed, &committed, None, obs(5, 16), obs(0, 21));
        let kinds: Vec<Invariant> = a.violations().iter().map(|v| v.invariant).collect();
        assert_eq!(kinds, [Invariant::KvOvercommit], "{:?}", a.violations());
    }

    #[test]
    fn depth_overflow_is_reported() {
        let mut a = auditor(64, 16, 1);
        a.on_arrival(1);
        a.on_arrival(2);
        let p1 = BatchPlan { prefill: vec![chunk(1, 8, 0, true)], decode: vec![] };
        let p2 = BatchPlan { prefill: vec![chunk(2, 8, 0, true)], decode: vec![] };
        a.on_schedule(0.0, 0, &p1, &p1, None, obs(64, 0), obs(63, 1));
        a.on_schedule(0.1, 1, &p2, &p2, None, obs(63, 1), obs(62, 2));
        assert!(a.violations().iter().any(|v| v.invariant == Invariant::PipelineDepth));
    }

    #[test]
    fn budget_conformance_catches_over_budget_and_grown_plans() {
        let mut a = auditor(64, 16, 4);
        a.on_arrival(1);
        let proposed = BatchPlan { prefill: vec![chunk(1, 100, 0, false)], decode: vec![] };
        let committed = proposed.clone();
        a.on_schedule(
            0.0,
            0,
            &proposed,
            &committed,
            Some(PlanCaps { prefill_tokens: Tokens(50), decode_seqs: 0 }),
            obs(64, 0),
            obs(57, 7),
        );
        assert!(a.violations().iter().any(|v| v.invariant == Invariant::BudgetConformance));

        let mut b = auditor(64, 16, 4);
        b.on_arrival(1);
        let grown = BatchPlan { prefill: vec![chunk(1, 120, 0, false)], decode: vec![] };
        b.on_schedule(0.0, 0, &proposed, &grown, None, obs(64, 0), obs(56, 8));
        assert!(b.violations().iter().any(|v| v.invariant == Invariant::BudgetConformance));
    }

    #[test]
    fn fcfs_inversion_is_reported() {
        let mut a = auditor(64, 16, 4);
        a.on_arrival(1); // earlier arrival, never started
        a.on_arrival(2);
        let plan = BatchPlan { prefill: vec![chunk(2, 8, 0, true)], decode: vec![] };
        a.on_schedule(0.0, 0, &plan, &plan, None, obs(64, 0), obs(63, 1));
        assert!(a.violations().iter().any(|v| v.invariant == Invariant::FcfsAdmission));
    }

    #[test]
    fn fcfs_allows_restart_after_preemption_and_aborted_heads() {
        let mut a = auditor(64, 16, 4);
        a.on_arrival(1);
        a.on_arrival(2);
        a.on_arrival(3);
        a.on_abort(1); // head rejected: seq 2 may start
        let p2 = BatchPlan { prefill: vec![chunk(2, 8, 0, false)], decode: vec![] };
        a.on_schedule(0.0, 0, &p2, &p2, None, obs(64, 0), obs(63, 1));
        a.on_complete(0.1, 0, &fin(&[]), obs(63, 1));
        // Seq 2 is preempted; seq 3 may still start because 2 *started*.
        a.on_evict(slot_of(2), 2);
        let p3 = BatchPlan { prefill: vec![chunk(3, 8, 0, false)], decode: vec![] };
        a.on_schedule(0.2, 1, &p3, &p3, None, obs(64, 0), obs(63, 1));
        assert!(a.is_clean(), "{:?}", a.violations());
    }

    #[test]
    fn kv_mismatch_is_reported() {
        let mut a = auditor(8, 16, 2);
        a.on_arrival(1);
        let plan = BatchPlan { prefill: vec![chunk(1, 20, 0, true)], decode: vec![] };
        // 20 tokens = 2 blocks, but the "manager" claims only 1 is used.
        a.on_schedule(0.0, 0, &plan, &plan, None, obs(8, 0), obs(7, 1));
        assert!(a.violations().iter().any(|v| v.invariant == Invariant::KvAccounting));
    }

    #[test]
    fn recovery_requeues_in_flight_batches_and_counts() {
        let mut a = auditor(64, 16, 4);
        a.on_arrival(1);
        a.on_arrival(2);
        let p1 = BatchPlan { prefill: vec![chunk(1, 8, 0, true)], decode: vec![] };
        let p2 = BatchPlan { prefill: vec![chunk(2, 8, 0, true)], decode: vec![] };
        a.on_schedule(0.0, 0, &p1, &p1, None, obs(64, 0), obs(63, 1));
        a.on_schedule(0.1, 1, &p2, &p2, None, obs(63, 1), obs(62, 2));
        // The pipeline dies with both batches in flight: the driver evicts
        // all KV, rolls both back and respawns.
        a.on_fault(0.2);
        a.on_evict(slot_of(1), 1);
        a.on_evict(slot_of(2), 2);
        a.on_recovery(0.2, 2);
        let s = a.snapshot();
        assert_eq!(s.in_flight, 0, "requeued batches leave the in-flight count");
        assert_eq!(s.faults_injected, 1);
        assert_eq!(s.recoveries, 1);
        assert_eq!(s.batches_requeued, 2);
        assert_eq!(s.live_kv_seqs, 0);
        // The recomputed schedule passes the KV cross-check from zero.
        a.on_schedule(0.3, 2, &p1, &p1, None, obs(64, 0), obs(63, 1));
        a.on_complete(0.4, 2, &fin(&[1]), obs(64, 0));
        assert!(a.is_clean(), "{:?}", a.violations());
        let report = a.into_report(false);
        assert_eq!(report.final_snapshot.recoveries, 1);
        assert_eq!(report.final_snapshot.batches_requeued, 2);
    }

    #[test]
    fn failed_request_leaves_fcfs_and_counts() {
        let mut a = auditor(64, 16, 4);
        a.on_arrival(1);
        a.on_arrival(2);
        a.on_request_failed(0.1, 1);
        assert_eq!(a.snapshot().requests_failed, 1);
        // Seq 2 may now start even though the failed seq 1 never did.
        let p2 = BatchPlan { prefill: vec![chunk(2, 8, 0, true)], decode: vec![] };
        a.on_schedule(0.2, 0, &p2, &p2, None, obs(64, 0), obs(63, 1));
        assert!(a.is_clean(), "{:?}", a.violations());
    }

    #[test]
    fn a_slot_named_with_the_wrong_owner_is_a_kv_accounting_violation() {
        let mut a = auditor(64, 16, 4);
        for seq in [1, 2] {
            a.on_arrival(seq);
        }
        let p1 = BatchPlan { prefill: vec![chunk(1, 8, 0, true)], decode: vec![] };
        a.on_schedule(0.0, 0, &p1, &p1, None, obs(64, 0), obs(63, 1));
        a.on_complete(0.1, 0, &fin(&[]), obs(63, 1));
        assert!(a.is_clean(), "{:?}", a.violations());
        // Seq 2's chunk, slot and eviction all name seq 1's slot: each is
        // reported, none panics, and seq 1's shadow is untouched.
        let stray = BatchPlan {
            prefill: vec![PrefillChunk { slot: slot_of(1), ..chunk(2, 8, 0, true) }],
            decode: vec![DecodeSlot { slot: slot_of(1), ..slot(2, 8) }],
        };
        a.on_schedule(0.2, 1, &stray, &stray, None, obs(63, 1), obs(63, 1));
        a.on_complete(0.3, 1, &[(2, slot_of(1))], obs(63, 1));
        a.on_evict(slot_of(1), 2);
        let kinds: Vec<Invariant> = a.violations().iter().map(|v| v.invariant).collect();
        assert_eq!(kinds, [Invariant::KvAccounting; 4], "{:?}", a.violations());
        assert!(a.violations().iter().all(|v| v.detail.contains("holds seq 1's shadow KV")));
        let s = a.snapshot();
        assert_eq!((s.live_kv_seqs, s.shadow_used_blocks), (1, Blocks(1)));
        // Seq 1 still leaves cleanly from its own slot.
        a.on_evict(slot_of(1), 1);
        assert_eq!(a.violations().len(), 4);
        assert_eq!(a.snapshot().live_kv_seqs, 0);
    }

    #[test]
    fn integrity_failure_is_a_violation() {
        let mut a = auditor(64, 16, 4);
        a.on_integrity_failure(0.5, Some(3), "committed chunk without KV table".to_string());
        assert!(!a.is_clean());
        let v = &a.violations()[0];
        assert_eq!(v.invariant, Invariant::RuntimeIntegrity);
        assert_eq!(v.batch, Some(3));
    }

    #[test]
    fn drained_run_with_leftover_kv_is_a_leak() {
        let mut a = auditor(8, 16, 2);
        a.on_arrival(1);
        let plan = BatchPlan { prefill: vec![chunk(1, 20, 0, true)], decode: vec![] };
        a.on_schedule(0.0, 0, &plan, &plan, None, obs(8, 0), obs(6, 2));
        a.on_complete(0.1, 0, &fin(&[]), obs(6, 2));
        let report = a.into_report(true);
        assert!(!report.is_clean());
        assert!(report.violations.iter().any(|v| v.detail.contains("leak") || v.detail.contains("left shadow KV")));
    }

    /// The FCFS, KV and conformance checks as they were before the
    /// incremental indexes: every first chunk rescans all arrivals, every
    /// KV cross-check re-sums the live contexts, and conformance searches
    /// the proposal linearly. Depth, overcommit, the counters and the
    /// violation log come from an inner auditor that never sees a shadow
    /// update, so only the rewritten logic is duplicated here.
    struct Reference {
        base: InvariantAuditor,
        arrival_idx: BTreeMap<u64, usize>,
        next_arrival: usize,
        started: BTreeSet<u64>,
        gone: BTreeSet<u64>,
        ctx: BTreeMap<u64, Tokens>,
    }

    impl Reference {
        fn new(total_blocks: usize, block_size: usize, depth: usize) -> Self {
            Self {
                base: auditor(total_blocks, block_size, depth),
                arrival_idx: BTreeMap::new(),
                next_arrival: 0,
                started: BTreeSet::new(),
                gone: BTreeSet::new(),
                ctx: BTreeMap::new(),
            }
        }

        fn on_arrival(&mut self, seq: u64) {
            self.arrival_idx.entry(seq).or_insert_with(|| {
                let i = self.next_arrival;
                self.next_arrival += 1;
                i
            });
        }

        fn on_request_failed(&mut self, t_s: f64, seq: u64) {
            self.base.last_t = t_s;
            self.base.requests_failed += 1;
            self.gone.insert(seq);
        }

        #[allow(clippy::too_many_arguments)]
        fn on_schedule(
            &mut self,
            t_s: f64,
            batch: u64,
            proposed: &BatchPlan,
            committed: &BatchPlan,
            caps: Option<PlanCaps>,
            before: KvObservation,
            after: KvObservation,
        ) {
            let b = &mut self.base;
            b.last_t = t_s;
            b.batches_checked += 1;
            if b.in_flight >= b.depth {
                let detail = format!("scheduled with {} batches already in flight (depth {})", b.in_flight, b.depth);
                b.violate(t_s, Some(batch), Invariant::PipelineDepth, detail);
            }
            b.in_flight += 1;
            b.check_overcommit(t_s, batch, proposed, before);
            self.check_conformance(t_s, batch, proposed, committed, caps);
            self.check_fcfs(t_s, batch, committed);
            for c in &committed.prefill {
                let cur = self.ctx.get(&c.seq).copied().unwrap_or(Tokens::ZERO);
                if cur != c.context_before {
                    let detail =
                        format!("seq {} prefill chunk claims context {} but shadow holds {}", c.seq, c.context_before, cur);
                    self.base.violate(t_s, Some(batch), Invariant::KvAccounting, detail);
                }
                self.ctx.insert(c.seq, cur + c.tokens);
                self.started.insert(c.seq);
            }
            for d in &committed.decode {
                let cur = self.ctx.get(&d.seq).copied().unwrap_or(Tokens::ZERO);
                if cur != d.context_before {
                    let detail =
                        format!("seq {} decode slot claims context {} but shadow holds {}", d.seq, d.context_before, cur);
                    self.base.violate(t_s, Some(batch), Invariant::KvAccounting, detail);
                }
                self.ctx.insert(d.seq, cur + Tokens(1));
            }
            self.check_kv(t_s, Some(batch), after);
        }

        fn on_complete(&mut self, t_s: f64, batch: u64, finished: &[u64], after: KvObservation) {
            self.base.last_t = t_s;
            if self.base.in_flight == 0 {
                let detail = "batch completed with nothing in flight".to_string();
                self.base.violate(t_s, Some(batch), Invariant::PipelineDepth, detail);
            } else {
                self.base.in_flight -= 1;
            }
            for &id in finished {
                self.gone.insert(id);
                if self.ctx.remove(&id).is_none() {
                    let detail = format!("finished seq {id} held no shadow KV");
                    self.base.violate(t_s, Some(batch), Invariant::KvAccounting, detail);
                }
            }
            self.check_kv(t_s, Some(batch), after);
        }

        fn check_conformance(
            &mut self,
            t_s: f64,
            batch: u64,
            proposed: &BatchPlan,
            committed: &BatchPlan,
            caps: Option<PlanCaps>,
        ) {
            let b = &mut self.base;
            if let Some(caps) = caps {
                let p = proposed.prefill_tokens();
                if p > caps.prefill_tokens {
                    let detail = format!("proposed {} prefill tokens over the policy's budget {}", p, caps.prefill_tokens);
                    b.violate(t_s, Some(batch), Invariant::BudgetConformance, detail);
                }
                if proposed.decode.len() > caps.decode_seqs {
                    let detail =
                        format!("proposed {} decode seqs over the policy's budget {}", proposed.decode.len(), caps.decode_seqs);
                    b.violate(t_s, Some(batch), Invariant::BudgetConformance, detail);
                }
            }
            for c in &committed.prefill {
                let detail = match proposed.prefill.iter().find(|p| p.seq == c.seq) {
                    Some(p) if c.tokens <= p.tokens => continue,
                    Some(p) => format!("admission grew seq {}'s chunk from {} to {} tokens", c.seq, p.tokens, c.tokens),
                    None => format!("admission invented a prefill chunk for seq {}", c.seq),
                };
                b.violate(t_s, Some(batch), Invariant::BudgetConformance, detail);
            }
            for d in &committed.decode {
                if !proposed.decode.iter().any(|p| p.seq == d.seq) {
                    let detail = format!("admission invented a decode slot for seq {}", d.seq);
                    b.violate(t_s, Some(batch), Invariant::BudgetConformance, detail);
                }
            }
        }

        fn check_fcfs(&mut self, t_s: f64, batch: u64, committed: &BatchPlan) {
            let mut prev_idx: Option<usize> = None;
            for c in &committed.prefill {
                let Some(&idx) = self.arrival_idx.get(&c.seq) else { continue };
                if prev_idx.is_some_and(|p| idx < p) {
                    let detail = format!("prefill chunks out of arrival order (seq {} after a later arrival)", c.seq);
                    self.base.violate(t_s, Some(batch), Invariant::FcfsAdmission, detail);
                }
                prev_idx = Some(idx);
                if !self.started.contains(&c.seq) {
                    let skipped: Vec<u64> = self
                        .arrival_idx
                        .iter()
                        .filter(|(id, &i)| i < idx && !self.started.contains(id) && !self.gone.contains(id))
                        .map(|(&id, _)| id)
                        .collect();
                    if !skipped.is_empty() {
                        let detail = format!("seq {} started before earlier unstarted arrivals {:?}", c.seq, skipped);
                        self.base.violate(t_s, Some(batch), Invariant::FcfsAdmission, detail);
                    }
                    self.started.insert(c.seq);
                }
            }
        }

        fn shadow_used(&self) -> Blocks {
            self.ctx.values().map(|&c| c.to_blocks(self.base.block_size)).sum()
        }

        fn check_kv(&mut self, t_s: f64, batch: Option<u64>, obs: KvObservation) {
            let shadow_used = self.shadow_used();
            let total = self.base.total_blocks;
            if shadow_used != obs.used_blocks || total - shadow_used != obs.free_blocks {
                let detail = format!(
                    "shadow accounting says {}/{} blocks used, manager reports {} used / {} free",
                    shadow_used, total, obs.used_blocks, obs.free_blocks
                );
                self.base.violate(t_s, batch, Invariant::KvAccounting, detail);
            }
        }

        fn snapshot(&self) -> AuditSnapshot {
            AuditSnapshot { live_kv_seqs: self.ctx.len(), shadow_used_blocks: self.shadow_used(), ..self.base.snapshot() }
        }
    }

    const TOTAL_BLOCKS: usize = 4096;
    const BLOCK_SIZE: usize = 4;

    /// One raw event: `(kind, seq, tokens, flags, chunks, slots)`. Chunks
    /// are `(seq, tokens, flags)` and slots `(seq, flags)`; the flag bits
    /// pick between faithful and corrupted contexts, observations and
    /// admissions, so both clean and violating streams are covered.
    type RawEvent = (u8, u64, usize, u8, Vec<(u64, usize, u8)>, Vec<(u64, u8)>);

    fn raw_events() -> impl Strategy<Value = Vec<RawEvent>> {
        use proptest::collection::vec;
        let event = (
            0u8..12,
            0u64..32,
            0usize..24,
            0u8..64,
            vec((0u64..32, 0usize..24, 0u8..16), 0..5),
            vec((0u64..32, 0u8..16), 0..5),
        );
        vec(event, 1..120)
    }

    /// The occupancy a faithful KV manager reports once `plan` is applied
    /// to the reference's shadow contexts.
    fn faithful_after(r: &Reference, plan: &BatchPlan) -> KvObservation {
        let mut ctx = r.ctx.clone();
        for c in &plan.prefill {
            *ctx.entry(c.seq).or_default() += c.tokens;
        }
        for d in &plan.decode {
            *ctx.entry(d.seq).or_default() += Tokens(1);
        }
        let used: Blocks = ctx.values().map(|&c| c.to_blocks(Tokens(BLOCK_SIZE))).sum();
        obs(TOTAL_BLOCKS - used.get(), used.get())
    }

    fn skew(o: KvObservation, flags: u8) -> KvObservation {
        match flags % 8 {
            0 => obs(o.free_blocks.get() + 1, o.used_blocks.get()),
            1 => obs(o.free_blocks.get(), o.used_blocks.get().saturating_sub(1)),
            _ => o,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn incremental_auditor_matches_the_history_scan(events in raw_events()) {
            let mut a = auditor(TOTAL_BLOCKS, BLOCK_SIZE, 3);
            let mut r = Reference::new(TOTAL_BLOCKS, BLOCK_SIZE, 3);
            let mut batch = 0u64;
            for (step, (kind, seq, tokens, flags, chunks, slots)) in events.into_iter().enumerate() {
                let t = step as f64 * 0.01;
                match kind {
                    0..=2 => {
                        a.on_arrival(seq);
                        r.on_arrival(seq);
                    }
                    3 => {
                        a.on_abort(seq);
                        r.gone.insert(seq);
                    }
                    4 => {
                        a.on_request_failed(t, seq);
                        r.on_request_failed(t, seq);
                    }
                    5 => {
                        a.on_evict(slot_of(seq), seq);
                        r.ctx.remove(&seq);
                    }
                    6 => {
                        // Recovery: the pipeline dies, every live seq is
                        // evicted, and `tokens % 4` batches are rolled back.
                        let live: Vec<u64> = r.ctx.keys().copied().collect();
                        a.on_fault(t);
                        r.base.on_fault(t);
                        for s in live {
                            a.on_evict(slot_of(s), s);
                            r.ctx.remove(&s);
                        }
                        a.on_recovery(t, tokens % 4);
                        r.base.on_recovery(t, tokens % 4);
                    }
                    7..=9 => {
                        // Chunks and slots claim the shadow context unless
                        // their flags ask for a mismatch; chunks may repeat
                        // a seq and arrive out of arrival order.
                        let claimed = |s: u64, f: u8| {
                            let held = r.ctx.get(&s).copied().unwrap_or(Tokens::ZERO);
                            if f.is_multiple_of(5) { held + Tokens(1 + usize::from(f)) } else { held }
                        };
                        let proposed = BatchPlan {
                            prefill: chunks
                                .iter()
                                .map(|&(s, n, f)| chunk(s, n, claimed(s, f).get(), f.is_multiple_of(3)))
                                .collect(),
                            decode: slots.iter().map(|&(s, f)| slot(s, claimed(s, f).get())).collect(),
                        };
                        // Admission trims (or, corrupted, grows, drops and
                        // invents) what the policy proposed.
                        let mut committed = proposed.clone();
                        for (c, &(_, _, f)) in committed.prefill.iter_mut().zip(&chunks) {
                            match f % 4 {
                                0 => c.tokens = c.tokens.saturating_sub(Tokens(2)),
                                1 if flags.is_multiple_of(5) => c.tokens += Tokens(3),
                                _ => {}
                            }
                        }
                        if flags.is_multiple_of(7) {
                            committed.prefill.push(chunk(seq, tokens, claimed(seq, 1).get(), false));
                        }
                        if flags % 6 == 1 {
                            committed.decode.push(slot(seq, claimed(seq, 1).get()));
                        }
                        if flags % 6 == 2 {
                            committed.decode.truncate(1);
                        }
                        let caps = flags.is_multiple_of(3)
                            .then(|| PlanCaps { prefill_tokens: Tokens(tokens * 2), decode_seqs: usize::from(flags % 4) });
                        let used = r.shadow_used().get();
                        let before = if flags.is_multiple_of(9) {
                            // Tight free space trips the overcommit check.
                            obs(tokens % 3, used)
                        } else {
                            obs(TOTAL_BLOCKS - used, used)
                        };
                        let after = skew(faithful_after(&r, &committed), flags / 8);
                        a.on_schedule(t, batch, &proposed, &committed, caps, before, after);
                        r.on_schedule(t, batch, &proposed, &committed, caps, before, after);
                        batch += 1;
                    }
                    _ => {
                        // Completion: the finished seqs are freed (some may
                        // hold no KV, some may repeat).
                        let mut finished: Vec<u64> = slots.iter().map(|&(s, _)| s).collect();
                        if flags.is_multiple_of(4) {
                            finished.push(seq);
                        }
                        let mut after_ctx = r.ctx.clone();
                        for s in &finished {
                            after_ctx.remove(s);
                        }
                        let used: Blocks = after_ctx.values().map(|&c| c.to_blocks(Tokens(BLOCK_SIZE))).sum();
                        let after = skew(obs(TOTAL_BLOCKS - used.get(), used.get()), flags / 8);
                        let done = batch.saturating_sub(1);
                        a.on_complete(t, done, &fin(&finished), after);
                        r.on_complete(t, done, &finished, after);
                    }
                }
                prop_assert_eq!(a.violations(), r.base.violations(), "after event {}", step);
                prop_assert_eq!(a.snapshot(), r.snapshot(), "after event {}", step);
            }
        }
    }
}
