//! Deterministic discrete-event queue.
//!
//! Events are ordered by virtual time with a monotone sequence number as the
//! tie-breaker, so simulations are bit-reproducible regardless of how many
//! events share a timestamp.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use gllm_metrics::TimelineHandle;

/// Events the serving simulation processes. Stage events name the
/// pipeline they belong to: the unified engine runs pipeline 0, the
/// disaggregated simulator a prefill (0) and a decode (1) pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Request `trace_index` arrives.
    Arrival {
        /// Index into the trace's request list.
        trace_index: usize,
    },
    /// Micro-batch `batch` finished executing on `stage` of `pipe`.
    StageDone {
        /// Pipeline index.
        pipe: u8,
        /// Batch id.
        batch: u64,
        /// Pipeline stage index.
        stage: usize,
    },
    /// Micro-batch `batch`'s activations arrived at `stage` of `pipe`
    /// (post-comm).
    BatchReady {
        /// Pipeline index.
        pipe: u8,
        /// Batch id.
        batch: u64,
        /// Pipeline stage index.
        stage: usize,
    },
    /// Sequence `seq`'s prompt KV arrived at the decode pipeline of a
    /// disaggregated deployment.
    TransferDone {
        /// Request id.
        seq: u64,
        /// The request's timeline.
        handle: TimelineHandle,
    },
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    time: f64,
    seq: u64,
    event: Event,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.time.total_cmp(&other.time) == Ordering::Equal && self.seq == other.seq
    }
}
impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap on (time, seq). `total_cmp` is a total
        // order, so the hottest comparator in the simulator has no panic
        // path; push() guarantees times are finite, non-negative and
        // normalised (no -0.0), which makes total_cmp agree with the
        // numeric order.
        other.time.total_cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Min-heap of events ordered by `(time, insertion order)`: events at
/// one time pop in the order they were pushed, so moving a `push`
/// reorders the simulation.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Entry>,
    next_seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty queue with room for `capacity` pending events, so bulk
    /// seeding (one arrival event per trace request) does not reallocate.
    pub fn with_capacity(capacity: usize) -> Self {
        Self { heap: BinaryHeap::with_capacity(capacity), next_seq: 0 }
    }

    /// Schedule `event` at absolute time `time`.
    pub fn push(&mut self, time: f64, event: Event) {
        assert!(time.is_finite() && time >= 0.0, "bad event time {time}");
        // Normalise -0.0 so Ord (total_cmp) and the numeric order agree on
        // every admitted time.
        let time = if time == 0.0 { 0.0 } else { time };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(f64, Event)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(2.0, Event::Arrival { trace_index: 2 });
        q.push(1.0, Event::Arrival { trace_index: 1 });
        q.push(3.0, Event::Arrival { trace_index: 3 });
        let order: Vec<f64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(order, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(1.0, Event::Arrival { trace_index: 10 });
        q.push(1.0, Event::Arrival { trace_index: 11 });
        q.push(1.0, Event::Arrival { trace_index: 12 });
        let order: Vec<usize> = std::iter::from_fn(|| {
            q.pop().map(|(_, e)| match e {
                Event::Arrival { trace_index } => trace_index,
                _ => unreachable!(),
            })
        })
        .collect();
        assert_eq!(order, vec![10, 11, 12]);
    }

    #[test]
    #[should_panic(expected = "bad event time")]
    fn rejects_nan_times() {
        EventQueue::new().push(f64::NAN, Event::Arrival { trace_index: 0 });
    }

    #[test]
    fn negative_zero_is_normalised_to_zero() {
        let mut q = EventQueue::new();
        q.push(-0.0, Event::Arrival { trace_index: 0 });
        q.push(0.0, Event::Arrival { trace_index: 1 });
        // Both are time 0.0; insertion order decides.
        let (t0, e0) = q.pop().expect("first");
        let (t1, e1) = q.pop().expect("second");
        assert!(t0 == 0.0 && t0.is_sign_positive());
        assert!(t1 == 0.0 && t1.is_sign_positive());
        assert_eq!(e0, Event::Arrival { trace_index: 0 });
        assert_eq!(e1, Event::Arrival { trace_index: 1 });
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut q = EventQueue::with_capacity(16);
        q.push(2.0, Event::Arrival { trace_index: 2 });
        q.push(1.0, Event::Arrival { trace_index: 1 });
        assert_eq!(q.pop().map(|(t, _)| t), Some(1.0));
        assert_eq!(q.pop().map(|(t, _)| t), Some(2.0));
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(0.0, Event::StageDone { pipe: 0, batch: 1, stage: 0 });
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
